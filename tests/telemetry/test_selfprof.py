"""Tests for the hierarchical self-profiler (RunProfiler) and the frame
table it installs from outside the program."""

import importlib
import inspect
import json
import pkgutil

import pytest

import repro.baselines
import repro.core
import repro.telemetry.selfprof as selfprof_mod
from repro.core.paldia import PaldiaPolicy
from repro.core.resilience import ResilienceConfig
from repro.experiments.schemes import SCHEMES, make_policy
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator.chaos import (
    ChaosSpec,
    MPSFaults,
    Slowdowns,
    StochasticCrashes,
)
from repro.simulator.engine import Simulator
from repro.telemetry.selfprof import (
    FRAMES,
    SELFPROF_SCHEMA,
    SUBSYSTEMS,
    RunProfiler,
    diff_profiles,
    load_profile,
    render_profile_diff,
    subsystem_of,
)
from repro.telemetry.tracer import Tracer
from repro.workloads.models import get_model
from repro.workloads.traces import poisson_trace


class FakeClock:
    """Deterministic stand-in for ``perf_counter``."""

    def __init__(self) -> None:
        self.t = 0.0

    def advance(self, dt: float) -> None:
        self.t += dt

    def __call__(self) -> float:
        return self.t


@pytest.fixture()
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(selfprof_mod, "perf_counter", fake)
    return fake


def frame(prof, *path):
    node = prof.root
    for name in path:
        node = node.children[name]
    return node


class TestRecording:
    def test_nesting_and_exclusive_math(self, clock):
        prof = RunProfiler()
        prof.push("outer")
        clock.advance(1.0)
        prof.push("inner")
        clock.advance(3.0)
        prof.pop()
        clock.advance(2.0)
        prof.pop()
        outer = frame(prof, "outer")
        inner = frame(prof, "outer", "inner")
        assert outer.seconds == pytest.approx(6.0)
        assert inner.seconds == pytest.approx(3.0)
        assert outer.exclusive() == pytest.approx(3.0)
        assert inner.exclusive() == pytest.approx(3.0)
        assert (outer.count, inner.count) == (1, 1)

    def test_repeat_entries_aggregate_in_one_frame(self, clock):
        prof = RunProfiler()
        for _ in range(5):
            prof.push("tick")
            clock.advance(0.5)
            prof.pop()
        tick = frame(prof, "tick")
        assert tick.count == 5
        assert tick.seconds == pytest.approx(2.5)
        assert len(prof.root.children) == 1

    def test_pop_without_push_raises(self, clock):
        prof = RunProfiler()
        prof.push("a")
        prof.pop()
        with pytest.raises(RuntimeError, match="without a matching push"):
            prof.pop()

    def test_telescoping_identity(self, clock):
        prof = RunProfiler()
        prof.push("run")
        clock.advance(0.05)
        prof.push("a")
        clock.advance(0.2)
        prof.push("b")
        clock.advance(0.3)
        prof.pop()
        prof.pop()
        prof.push("a")
        clock.advance(0.4)
        prof.pop()
        prof.push("c")
        clock.advance(0.05)
        prof.pop()
        prof.pop()
        total_exclusive = sum(excl for *_rest, excl in prof.rows())
        assert total_exclusive == pytest.approx(prof.total_seconds)
        # Child time is carved out of its parent, so the root total is
        # exactly the elapsed wall time.
        assert prof.total_seconds == pytest.approx(1.0)


class TestEngineIntegration:
    def test_push_site_names_and_nesting(self, clock):
        prof = RunProfiler()

        def callback():
            prof.push("batch.plan")
            clock.advance(1.0)
            prof.pop()

        prof.push_site(callback)
        clock.advance(0.5)
        prof.pop()
        (name,) = prof.root.children
        assert name.startswith("cb:")
        assert "callback" in name
        # The module prefix is present but its leading "repro." stripped.
        assert not name.startswith("cb:repro.")

    def test_simulator_dispatch_creates_site_frames(self, clock):
        prof = RunProfiler()
        sim = Simulator()
        sim.set_profiler(prof)

        def tick():
            prof.push("select.choose_best_HW")
            prof.pop()

        sim.schedule(1.0, tick)
        sim.run()
        (site_name,) = prof.root.children
        site = prof.root.children[site_name]
        assert site.count == 1
        # The phase entered during the callback nests under the site.
        assert "select.choose_best_HW" in site.children


def tick():
    pass


def dispatch(prof, clock, fn, seconds):
    """One engine dispatch of ``fn`` taking ``seconds`` of wall time."""
    prof.push_site(fn)
    clock.advance(seconds)
    prof.pop()


class TestEngineSites:
    def test_sites_aggregate_by_qualname(self, clock):
        prof = RunProfiler()
        dispatch(prof, clock, tick, 0.001)
        dispatch(prof, clock, tick, 0.002)
        (site,) = prof.root.children.values()
        assert site.name.endswith("test_selfprof.tick")
        assert site.count == 2
        assert site.seconds == pytest.approx(0.003)

    def test_closures_from_one_site_share_a_row(self, clock):
        # The framework schedules fresh lambdas per event; they must fold
        # into one frame or the profile is unreadable.
        prof = RunProfiler()

        def make(i):
            return lambda: i

        dispatch(prof, clock, make(1), 0.001)
        dispatch(prof, clock, make(2), 0.001)
        assert len(prof.rows()) == 1
        assert prof.rows()[0][2] == 2

    def test_rows_hottest_first(self, clock):
        prof = RunProfiler()
        dispatch(prof, clock, tick, 0.001)
        dispatch(prof, clock, len, 0.010)
        rows = prof.rows()
        assert rows[0][3] >= rows[1][3]
        assert rows[0][0] == ("cb:builtins.len",)

    def test_integrates_with_simulator(self):
        prof = RunProfiler()
        sim = Simulator(profiler=prof)
        for i in range(5):
            sim.schedule(i + 1.0, lambda: None)
        sim.run()
        assert sum(count for _p, _d, count, _i, _e in prof.rows()) == 5

    def test_rendered_report(self, clock):
        prof = RunProfiler()
        dispatch(prof, clock, tick, 0.001)
        text = prof.rendered()
        assert "self-profile" in text
        assert "test_selfprof.tick" in text


class TestSubsystems:
    def test_subsystem_of_phases(self):
        assert subsystem_of("arrivals.window") == "framework"
        assert subsystem_of("select.choose_best_HW") == "core"
        assert subsystem_of("batch.plan") == "core"
        assert subsystem_of("autoscaler.reap") == "core"
        assert subsystem_of("resilience.plan_retry") == "core"
        assert subsystem_of("gpu.interference") == "simulator"
        assert subsystem_of("telemetry.sampler") == "telemetry"
        assert subsystem_of("engine") == "engine"
        assert subsystem_of("run") == "harness"
        assert subsystem_of("mystery.phase") == "other"

    def test_subsystem_of_callback_sites(self):
        assert subsystem_of("cb:framework.system.Run._tick") == "framework"
        assert subsystem_of("cb:simulator.gpu.GPUDevice._x") == "simulator"
        assert subsystem_of("cb:something.weird") == "other"

    def test_shares_cover_all_buckets_and_sum_to_one(self, clock):
        prof = RunProfiler()
        prof.push("run")
        clock.advance(1.0)
        prof.push("gpu.submit")
        clock.advance(3.0)
        prof.pop()
        prof.pop()
        shares = prof.subsystem_shares()
        assert set(shares) == set(SUBSYSTEMS)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["harness"] == pytest.approx(0.25)
        assert shares["simulator"] == pytest.approx(0.75)

    def test_shares_empty_profile(self):
        shares = RunProfiler().subsystem_shares()
        assert set(shares) == set(SUBSYSTEMS)
        assert all(v == 0.0 for v in shares.values())

    def test_top_phases_merges_across_positions(self, clock):
        prof = RunProfiler()
        prof.push("a")
        prof.push("hot")
        clock.advance(2.0)
        prof.pop()
        prof.pop()
        prof.push("b")
        prof.push("hot")
        clock.advance(2.0)
        prof.pop()
        clock.advance(1.0)
        prof.pop()
        top = prof.top_phases(1)
        assert top[0][0] == "hot"
        assert top[0][1] == pytest.approx(4.0 / 5.0)
        assert RunProfiler().top_phases() == []


class TestExport:
    def make_profile(self, clock):
        prof = RunProfiler(meta={"scheme": "paldia"})
        prof.push("run")
        clock.advance(0.5)
        prof.push("engine")
        clock.advance(1.5)
        prof.pop()
        prof.pop()
        return prof

    def test_as_dict_save_load_roundtrip(self, clock, tmp_path):
        prof = self.make_profile(clock)
        path = str(tmp_path / "prof.json")
        prof.save(path)
        loaded = load_profile(path)
        assert loaded["schema"] == SELFPROF_SCHEMA
        assert loaded["meta"] == {"scheme": "paldia"}
        assert loaded["total_seconds"] == pytest.approx(2.0)
        root = loaded["root"]
        assert root["name"] == "<run>"
        (run_node,) = root["children"]
        assert run_node["name"] == "run"
        (engine_node,) = run_node["children"]
        assert engine_node["seconds"] == pytest.approx(1.5)

    def test_load_profile_rejects_wrong_schema(self, tmp_path):
        path = str(tmp_path / "bogus.json")
        with open(path, "w") as fh:
            json.dump({"schema": "something/9"}, fh)
        with pytest.raises(ValueError, match="not a repro.selfprof/1"):
            load_profile(path)

    def test_to_collapsed_format(self, clock):
        prof = self.make_profile(clock)
        lines = prof.to_collapsed().splitlines()
        assert "run 500000" in lines
        assert "run;engine 1500000" in lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert stack

    def test_to_speedscope_is_consistent(self, clock):
        prof = self.make_profile(clock)
        scope = prof.to_speedscope("unit test")
        assert scope["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        (profile,) = scope["profiles"]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "seconds"
        n_frames = len(scope["shared"]["frames"])
        assert len(profile["samples"]) == len(profile["weights"])
        for stack in profile["samples"]:
            assert all(0 <= i < n_frames for i in stack)
        assert sum(profile["weights"]) == pytest.approx(
            profile["endValue"]
        )
        assert sum(profile["weights"]) == pytest.approx(2.0)

    def test_rendered_table(self, clock):
        prof = self.make_profile(clock)
        out = prof.rendered()
        assert "self-profile: 2000.0 ms total" in out
        assert "excl_%" in out
        assert "  engine" in out  # indented child
        assert RunProfiler().rendered() == (
            "self-profile: no frames recorded"
        )

    def test_rendered_with_alloc_column(self, clock):
        prof = RunProfiler(track_alloc=True)
        prof.push("setup")
        clock.advance(1.0)
        prof.pop()
        out = prof.rendered()
        prof.finish()
        assert "alloc_kb" in out


class TestDiff:
    def saved(self, clock, tmp_path, name, engine_s):
        clock.t = 0.0
        prof = RunProfiler()
        prof.push("run")
        clock.advance(1.0)
        prof.push("engine")
        clock.advance(engine_s)
        prof.pop()
        prof.pop()
        path = str(tmp_path / name)
        prof.save(path)
        return load_profile(path)

    def test_diff_profiles_deltas(self, clock, tmp_path):
        a = self.saved(clock, tmp_path, "a.json", 2.0)
        b = self.saved(clock, tmp_path, "b.json", 5.0)
        entries = diff_profiles(a, b)
        # Largest mover first: the engine frame grew by 3 s.
        assert entries[0]["path"] == ("run", "engine")
        assert entries[0]["delta_exclusive"] == pytest.approx(3.0)
        run_entry = next(e for e in entries if e["path"] == ("run",))
        assert run_entry["delta_exclusive"] == pytest.approx(0.0)

    def test_diff_surfaces_new_frames(self, clock, tmp_path):
        a = self.saved(clock, tmp_path, "a.json", 2.0)
        clock.t = 0.0
        prof = RunProfiler()
        prof.push("run")
        prof.push("brand.new")
        clock.advance(4.0)
        prof.pop()
        prof.pop()
        path = str(tmp_path / "c.json")
        prof.save(path)
        c = load_profile(path)
        entries = diff_profiles(a, c)
        new = next(e for e in entries if e["path"] == ("run", "brand.new"))
        assert new["baseline_exclusive"] == 0.0
        assert new["candidate_exclusive"] == pytest.approx(4.0)
        out = render_profile_diff(a, c)
        assert "profile diff" in out
        assert "new" in out


class TestAllocTracking:
    def test_alloc_bytes_recorded(self):
        prof = RunProfiler(track_alloc=True)
        try:
            keep = []
            prof.push("allocate")
            keep.append(bytearray(1 << 20))
            prof.pop()
            assert frame(prof, "allocate").alloc_bytes >= (1 << 20) * 0.9
        finally:
            prof.finish()

    def test_finish_stops_tracemalloc_it_started(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        prof = RunProfiler(track_alloc=True)
        assert tracemalloc.is_tracing()
        prof.finish()
        assert not tracemalloc.is_tracing()

    def test_finish_leaves_foreign_tracemalloc_running(self):
        import tracemalloc

        tracemalloc.start()
        try:
            prof = RunProfiler(track_alloc=True)
            prof.finish()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()


class TestServerlessRunIntegration:
    def run_profiled(self):
        model = get_model("resnet50")
        profiles = ProfileService()
        slo = SLO()
        trace = poisson_trace(
            rate_rps=model.peak_rps, duration=10.0, seed=0
        )
        policy = make_policy(
            "paldia", model, profiles, slo.target_seconds, trace
        )
        with RunProfiler() as prof:
            result = ServerlessRun(
                model, trace, policy, profiles, slo
            ).execute()
        return result, prof

    def test_phase_tree_shape(self):
        result, prof = self.run_profiled()
        run_frame = prof.root.children["run"]
        assert {"setup", "engine", "finalize"} <= set(run_frame.children)
        names = {f.name for f in prof.walk()}
        assert "arrivals.window" in names
        assert "select.choose_best_HW" in names
        assert "batch.plan" in names
        assert "gpu.submit" in names
        assert "gpu.complete" in names
        # Engine callback sites appear as cb: frames under "engine".
        engine = run_frame.children["engine"]
        assert any(n.startswith("cb:") for n in engine.children)

    def test_wall_clock_conservation(self):
        result, prof = self.run_profiled()
        assert result.wall_seconds > 0
        # The acceptance contract is 5% on the benchmark scenario; unit
        # tests on a loaded machine get a slightly wider net.
        assert prof.total_seconds == pytest.approx(
            result.wall_seconds, rel=0.10
        )

    def test_unprofiled_result_has_wall_seconds(self):
        model = get_model("resnet50")
        profiles = ProfileService()
        slo = SLO()
        trace = poisson_trace(rate_rps=model.peak_rps, duration=5.0, seed=0)
        policy = make_policy(
            "paldia", model, profiles, slo.target_seconds, trace
        )
        result = ServerlessRun(
            model, trace, policy, profiles, slo
        ).execute()
        assert result.wall_seconds > 0


def short_run(scheme="paldia", config=None, tracer=None, duration=10.0):
    model = get_model("resnet50")
    profiles = ProfileService()
    slo = SLO()
    trace = poisson_trace(rate_rps=model.peak_rps, duration=duration, seed=0)
    policy = make_policy(scheme, model, profiles, slo.target_seconds, trace)
    return ServerlessRun(
        model, trace, policy, profiles, slo, config, tracer=tracer
    )


def installed():
    """``{FRAMES entry: the class attribute it names}`` right now."""
    out = {}
    for module, attr, name in FRAMES:
        cls_name, method = attr.split(".")
        cls = getattr(importlib.import_module(module), cls_name)
        out[(module, attr, name)] = cls.__dict__[method]
    return out


class Exploding(PaldiaPolicy):
    def plan_window(self, *args, **kwargs):
        raise RuntimeError("boom")


class TestFrameTable:
    @pytest.mark.parametrize("entry", [
        ("repro.no_such_module", "Policy.plan_window", "batch.plan"),
        ("repro.core.paldia", "NoSuchPolicy.plan_window", "batch.plan"),
        ("repro.core.paldia", "PaldiaPolicy.no_such_method", "batch.plan"),
        # Inherited, not defined in the class's own body.
        ("repro.baselines.oracle", "OraclePolicy.plan_window", "batch.plan"),
    ], ids=["module", "class", "method", "inherited"])
    def test_stale_entry_fails_by_name(self, monkeypatch, entry):
        before = installed()
        monkeypatch.setattr(selfprof_mod, "FRAMES", FRAMES + (entry,))
        with pytest.raises(LookupError, match=entry[1]):
            with RunProfiler():
                pass  # pragma: no cover - never entered
        monkeypatch.undo()
        # Nothing was patched before the stale entry was found.
        assert all(installed()[k] is v for k, v in before.items())

    def test_every_policy_override_has_a_frame(self):
        framed = {(module, attr): name for module, attr, name in FRAMES}
        want = {"plan_window": "batch.plan",
                "desired_hardware": "select.choose_best_HW"}
        missing = []
        for pkg in (repro.core, repro.baselines):
            for info in pkgutil.iter_modules(pkg.__path__):
                module = importlib.import_module(f"{pkg.__name__}.{info.name}")
                for cls in vars(module).values():
                    if not inspect.isclass(cls) or (
                        cls.__module__ != module.__name__
                    ):
                        continue
                    for method, name in want.items():
                        fn = cls.__dict__.get(method)
                        # Abstract declarations are never called.
                        if fn is None or getattr(
                            fn, "__isabstractmethod__", False
                        ):
                            continue
                        key = (module.__name__, f"{cls.__name__}.{method}")
                        if framed.get(key) != name:
                            missing.append(key)
        assert missing == []

    def test_exit_restores_originals_and_detaches(self):
        before = installed()
        run = short_run(duration=5.0)
        with RunProfiler() as prof:
            assert all(installed()[k] is not v for k, v in before.items())
            with pytest.raises(RuntimeError, match="already entered"):
                prof.__enter__()
            run.execute()
        assert all(installed()[k] is v for k, v in before.items())
        assert run.sim._profiler is None

    def test_exit_restores_originals_when_the_run_raises(self):
        before = installed()
        model = get_model("resnet50")
        profiles = ProfileService()
        slo = SLO()
        trace = poisson_trace(rate_rps=model.peak_rps, duration=5.0, seed=0)
        run = ServerlessRun(
            model, trace, Exploding(model, profiles, slo.target_seconds),
            profiles, slo,
        )
        with pytest.raises(RuntimeError, match="boom"):
            with RunProfiler():
                run.execute()
        assert all(installed()[k] is v for k, v in before.items())
        assert run.sim._profiler is None

    def test_keeps_a_dispatch_profiler_already_attached(self):
        run = short_run(duration=5.0)
        owner = RunProfiler()
        run.sim.set_profiler(owner)
        with RunProfiler() as prof:
            run.execute()
        assert run.sim._profiler is owner
        assert not any(f.name.startswith("cb:") for f in prof.walk())
        assert any(f.name.startswith("cb:") for f in owner.walk())

    def test_fault_and_telemetry_run_enters_every_frame(self):
        chaos = ChaosSpec(faults=(
            StochasticCrashes(
                mean_interarrival_seconds=20, downtime_seconds=10
            ),
            MPSFaults(),
            Slowdowns(),
        ))
        config = RunConfig(
            chaos=chaos,
            resilience=ResilienceConfig(recovery="retry"),
            reqtrace=True,
            cost_budget_dollars=0.01,
        )
        run = short_run(config=config, tracer=Tracer(), duration=60.0)
        with RunProfiler() as prof:
            run.execute()
        names = {f.name for f in prof.walk()}
        expected = {name for _module, _attr, name in FRAMES}
        assert len(expected) == 16
        assert expected <= names

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_enters_the_policy_frames(self, scheme):
        with RunProfiler() as prof:
            short_run(scheme, duration=5.0).execute()
        names = {f.name for f in prof.walk()}
        assert {"batch.plan", "select.choose_best_HW"} <= names
