"""Tests for the chaos engine: spec JSON, replay, and the pinned Fig 13b
outage."""

import pytest

from repro.core.paldia import PaldiaPolicy
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator.chaos import (
    ChaosEngine,
    ChaosHooks,
    ChaosSpec,
    ColdStartFailures,
    MPSFaults,
    OOMKills,
    PeriodicOutage,
    Slowdowns,
    StochasticCrashes,
)
from repro.simulator.engine import Simulator
from repro.telemetry.tracer import Tracer
from repro.workloads.models import get_model
from repro.workloads.traces import azure_trace, poisson_trace

ALL_FAULTS = (
    PeriodicOutage(90.0, 30.0, first_failure_at=10.0),
    StochasticCrashes(60.0, 20.0, first_crash_after=5.0),
    Slowdowns(45.0, 10.0, factor=1.5),
    ColdStartFailures(probability=0.3, extra_delay_factor=0.5),
    OOMKills(80.0, first_after=3.0),
    MPSFaults(120.0, 25.0),
)


class TestSpecValidation:
    def test_periodic_downtime_must_fit_period(self):
        with pytest.raises(ValueError):
            PeriodicOutage(period_seconds=60.0, downtime_seconds=60.0)

    def test_crash_times_must_be_positive(self):
        with pytest.raises(ValueError):
            StochasticCrashes(mean_interarrival_seconds=0.0)

    def test_slowdown_cannot_speed_up(self):
        with pytest.raises(ValueError):
            Slowdowns(factor=0.5)

    def test_cold_start_probability_range(self):
        with pytest.raises(ValueError):
            ColdStartFailures(probability=1.0)
        with pytest.raises(ValueError):
            ColdStartFailures(probability=-0.1)

    def test_zero_cold_start_probability_is_valid(self):
        assert ColdStartFailures(probability=0.0).probability == 0.0


class TestSpecJSON:
    def test_round_trip_every_fault_kind(self):
        spec = ChaosSpec(faults=ALL_FAULTS, seed=7)
        assert ChaosSpec.loads(spec.dumps()) == spec

    def test_save_load_file(self, tmp_path):
        spec = ChaosSpec(faults=ALL_FAULTS, seed=3)
        path = str(tmp_path / "chaos.json")
        spec.save(path)
        assert ChaosSpec.load(path) == spec

    def test_dict_carries_schema_and_kinds(self):
        data = ChaosSpec(faults=ALL_FAULTS).to_dict()
        assert data["schema"] == "repro.chaos/1"
        kinds = {f["kind"] for f in data["faults"]}
        assert kinds == {
            "periodic_outage", "stochastic_crashes", "slowdowns",
            "cold_start_failures", "oom_kills", "mps_faults",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            ChaosSpec.from_dict({"faults": [{"kind": "gamma_rays"}]})


#: Event streams the retired single-pattern injector produced for
#: ``period=100, downtime=40, first=10`` at each horizon.
_LEGACY_OUTAGE_EVENTS = {
    250.0: [("fail", 10.0), ("recover", 50.0), ("fail", 110.0),
            ("recover", 150.0), ("fail", 210.0), ("recover", 250.0)],
    20.0: [("fail", 10.0), ("recover", 50.0)],
    10.0: [],
}


class TestLegacyInjectorEquivalence:
    """A PeriodicOutage fires event-for-event as the retired legacy
    injector did, including the horizon semantics."""

    @pytest.mark.parametrize("horizon", [250.0, 20.0, 10.0])
    def test_event_times_identical(self, horizon):
        chaos_sim = Simulator()
        chaos_events = []
        engine = ChaosEngine(
            chaos_sim,
            ChaosSpec(faults=(PeriodicOutage(100.0, 40.0, 10.0),)),
            ChaosHooks(
                on_node_fail=lambda: chaos_events.append(
                    ("fail", chaos_sim.now)
                ),
                on_node_recover=lambda: chaos_events.append(
                    ("recover", chaos_sim.now)
                ),
            ),
            horizon=horizon,
        )
        engine.start()
        chaos_sim.run()

        assert chaos_events == _LEGACY_OUTAGE_EVENTS[horizon]


class TestDeterministicReplay:
    def _crash_times(self, seed):
        sim = Simulator()
        times = []
        engine = ChaosEngine(
            sim,
            ChaosSpec(faults=(StochasticCrashes(30.0, 10.0),), seed=seed),
            ChaosHooks(on_node_fail=lambda: times.append(sim.now)),
            horizon=500.0,
        )
        engine.start()
        sim.run()
        return times, engine.injected["stochastic_crashes"]

    def test_same_seed_bit_identical(self):
        times_a, n_a = self._crash_times(4)
        times_b, n_b = self._crash_times(4)
        assert times_a == times_b  # exact float equality, not approx
        assert n_a == n_b >= 2

    def test_different_seed_differs(self):
        assert self._crash_times(4)[0] != self._crash_times(5)[0]

    def test_adding_a_fault_keeps_other_streams_fixed(self):
        """Per-(index, kind) RNG streams: composing faults must not shift
        the crash times."""
        def crash_times(faults):
            sim = Simulator()
            times = []
            ChaosEngine(
                sim,
                ChaosSpec(faults=faults, seed=4),
                ChaosHooks(on_node_fail=lambda: times.append(sim.now)),
                horizon=400.0,
            ).start()
            sim.run()
            return times

        alone = crash_times((StochasticCrashes(30.0, 10.0),))
        composed = crash_times(
            (StochasticCrashes(30.0, 10.0), Slowdowns(50.0, 5.0))
        )
        assert alone == composed

    def test_engine_starts_once(self):
        engine = ChaosEngine(Simulator(), ChaosSpec(), ChaosHooks())
        engine.start()
        with pytest.raises(RuntimeError):
            engine.start()


class TestHorizon:
    def test_onset_at_horizon_suppressed(self):
        sim = Simulator()
        fired = []
        engine = ChaosEngine(
            sim,
            ChaosSpec(faults=(PeriodicOutage(100.0, 40.0, 50.0),)),
            ChaosHooks(on_node_fail=lambda: fired.append(sim.now)),
            horizon=50.0,
        )
        engine.start()
        sim.run()
        assert fired == []
        assert engine.injected["periodic_outage"] == 0


def _engine_state_at_events(fault, horizon, state):
    """Run one fault stream traced; return ``(event name, state(engine))``
    as each ``chaos.inject`` / ``chaos.recover`` event is emitted."""
    sim, tracer, seen = Simulator(), Tracer(), []
    engine = ChaosEngine(
        sim, ChaosSpec(faults=(fault,), seed=1), ChaosHooks(),
        horizon=horizon, tracer=tracer,
    )
    emit = tracer.event

    def event(name, time, **attrs):
        seen.append((name, state(engine)))
        emit(name, time, **attrs)

    tracer.event = event
    engine.start()
    sim.run()
    assert [e.name for e in tracer.events] == [name for name, _ in seen]
    return engine, seen


class TestFaultEffects:
    def test_slowdown_factor_window(self):
        engine, seen = _engine_state_at_events(
            Slowdowns(20.0, 5.0, factor=2.0), 200.0,
            lambda e: e.slowdown_factor,
        )
        injects = [f for name, f in seen if name == "chaos.inject"]
        assert injects and all(f == 2.0 for f in injects)
        assert len(injects) == engine.injected["slowdowns"]
        assert engine.slowdown_factor == 1.0  # every window recovered

    def test_mps_down_toggles(self):
        _, seen = _engine_state_at_events(
            MPSFaults(40.0, 10.0), 300.0, lambda e: e.mps_down
        )
        assert seen
        assert all(down for name, down in seen if name == "chaos.inject")
        assert all(not down for name, down in seen if name == "chaos.recover")

    def test_cold_start_delay_inflates(self):
        engine = ChaosEngine(
            Simulator(),
            ChaosSpec(faults=(ColdStartFailures(probability=0.9),), seed=1),
            ChaosHooks(),
        )
        engine.start()
        assert engine.perturbs_cold_starts
        delays = [engine.cold_start_delay(2.5) for _ in range(20)]
        assert all(d >= 2.5 for d in delays)
        assert any(d > 2.5 for d in delays)
        assert engine.injected["cold_start_failures"] >= 1

    def test_zero_probability_never_inflates(self):
        engine = ChaosEngine(
            Simulator(),
            ChaosSpec(faults=(ColdStartFailures(probability=0.0),)),
            ChaosHooks(),
        )
        engine.start()
        assert all(engine.cold_start_delay(2.5) == 2.5 for _ in range(20))


# ----------------------------------------------------------------------
# Full-run contracts
# ----------------------------------------------------------------------
def _run(model_name, duration, config, slo_seconds=0.2, peak=None):
    model = get_model(model_name)
    profiles = ProfileService()
    slo = SLO(slo_seconds)
    trace = azure_trace(
        peak_rps=peak if peak is not None else model.peak_rps,
        duration=duration,
        seed=1,
    )
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    return ServerlessRun(model, trace, policy, profiles, slo, config).execute()


def _fingerprint(r):
    return (
        r.slo_compliance, r.total_cost, r.p50_seconds, r.p99_seconds,
        r.completed_requests, r.unserved_requests, r.n_switches,
        r.cold_starts, tuple(r.switch_log), tuple(sorted(r.tail_breakdown.items())),
    )


#: ``_fingerprint`` of the retired legacy injector's run of
#: ``period=60, downtime=20, first=25`` (floats written via ``repr``).
_LEGACY_OUTAGE_FINGERPRINT = (
    0.9032733224222586, 0.07450277777777779, 0.07932714188173762,
    4.9444527227224055, 12220, 0, 3, 161,
    (
        (0.0, '-', 'g3s.xlarge'),
        (30.5, '-', 'p3.2xlarge'),
        (57.5, 'p3.2xlarge', 'p2.xlarge'),
        (65.5, 'p2.xlarge', 'g3s.xlarge'),
        (90.5, '-', 'p3.2xlarge'),
        (115.0, 'p3.2xlarge', 'c6i.4xlarge'),
    ),
    (
        ('batching_wait', 5.285945632677652),
        ('cold_start_wait', 0.0),
        ('exec_solo', 0.01361315936392924),
        ('failure_wait', 0.0),
        ('interference_extra', 0.009393697060211557),
        ('queue_delay', 0.020537613090198414),
        ('total', 5.329490102191992),
    ),
)


class TestRunLevelContracts:
    def test_legacy_schedule_as_chaos_is_bit_identical(self):
        """The Fig 13b outage driven by the chaos engine produces the
        exact RunResult the retired legacy injector did."""
        chaos = _run(
            "resnet50", 120.0,
            RunConfig(chaos=ChaosSpec(
                faults=(PeriodicOutage(60.0, 20.0, first_failure_at=25.0),)
            )),
        )
        assert _fingerprint(chaos) == _LEGACY_OUTAGE_FINGERPRINT

    def test_stochastic_spec_replays_bit_identically(self):
        config = RunConfig(
            chaos=ChaosSpec(
                faults=(StochasticCrashes(60.0, 20.0, first_crash_after=10.0),),
                seed=3,
            )
        )
        first = _run("bert", 180.0, config, slo_seconds=10.0)
        second = _run("bert", 180.0, config, slo_seconds=10.0)
        assert _fingerprint(first) == _fingerprint(second)

    def test_cold_start_failures_fire_inside_a_run(self):
        """A cold-start failure stream reaches the run's own cold starts:
        the spawn-delay hook is installed when the run is built."""
        model, profiles, slo = get_model("resnet50"), ProfileService(), SLO()

        def execute(chaos):
            trace = poisson_trace(rate_rps=model.peak_rps, duration=60.0, seed=0)
            policy = PaldiaPolicy(model, profiles, slo.target_seconds)
            run = ServerlessRun(
                model, trace, policy, profiles, slo, RunConfig(chaos=chaos)
            )
            return run, run.execute()

        _, calm = execute(None)
        faulted_run, faulted = execute(
            ChaosSpec(faults=(ColdStartFailures(probability=0.9),))
        )
        assert faulted_run._chaos.injected["cold_start_failures"] > 0
        assert _fingerprint(faulted) != _fingerprint(calm)

    def test_oom_kills_are_requeued(self):
        r = _run(
            "resnet50", 60.0,
            RunConfig(chaos=ChaosSpec(
                faults=(OOMKills(15.0, first_after=5.0),), seed=1,
            )),
        )
        assert r.completed_requests + r.unserved_requests == r.offered_requests
        assert r.completed_requests > 0

    def test_mps_fault_forces_temporal(self):
        """With MPS down for the whole trace, nothing runs spatially —
        while the control run does use spatial sharing."""
        chaos = RunConfig(chaos=ChaosSpec(
            faults=(MPSFaults(
                mean_interarrival_seconds=0.001,
                duration_seconds=10_000.0,
            ),),
            seed=1,
        ))
        faulted = _run("resnet50", 45.0, chaos)
        control = _run("resnet50", 45.0, RunConfig())
        assert control.mode_split.get("spatial", 0) > 0
        assert faulted.mode_split.get("spatial", 0) == 0
        assert faulted.completed_requests > 0
