"""Tests for the cost meter: line sweep, conservation, budget monitor."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.framework.request import Batch
from repro.hardware.catalog import HardwareKind, HardwareSpec
from repro.simulator.metrics import MetricsCollector
from repro.telemetry import Tracer
from repro.telemetry.costmeter import (
    BUCKETS,
    CostBudgetMonitor,
    CostMeter,
)


def make_spec(price_per_hour=3600.0, provision_seconds=5.0):
    """A spec priced at $1/second so interval dollars read as seconds."""
    return HardwareSpec(
        name="test.node",
        kind=HardwareKind.GPU,
        device="Test GPU",
        price_per_hour=price_per_hour,
        memory_gb=16.0,
        vcpus=8,
        speed_factor=1.0,
        mem_bandwidth_gbps=900.0,
        idle_watts=100.0,
        peak_watts=300.0,
        cold_start_seconds=2.0,
        provision_seconds=provision_seconds,
    )


def log_batch(meter, node_id, model, batch_id, n, started_at, completed_at):
    """Log a batch of ``n`` requests that ran on ``node_id`` over
    ``[started_at, completed_at)`` to a batch log ``meter`` reads."""
    if not hasattr(meter, "collector"):
        meter.collector = MetricsCollector()
        meter.attach(meter.collector.log)
    batch = Batch(model=SimpleNamespace(name=model), arrivals=np.zeros(n),
                  dispatched_at=started_at, batch_id=batch_id)
    batch.started_at = started_at
    batch.complete(completed_at)
    meter.collector.record_batch(batch, node_id)


class TestLineSweep:
    def test_reference_lease_itemization(self):
        """acquire t=0 (ready 5), spawn [5,7), batch A [8,10) n=4,
        batch B [9,10) n=4, release 12: reconfig 5, coldstart 2,
        busy 2, idle 3; A absorbs 1 + 0.5, B 0.5."""
        meter = CostMeter()
        meter.on_acquire(1, make_spec(), 0.0, 5.0)
        meter.on_spawn(1, 5.0, 7.0)
        log_batch(meter, 1, "m", 10, 4, 8.0, 10.0)
        log_batch(meter, 1, "m", 11, 4, 9.0, 10.0)
        meter.on_release(1, 12.0)
        bd = meter.summarize(12.0)

        assert bd.bucket_dollars["reconfig"] == pytest.approx(5.0)
        assert bd.bucket_dollars["coldstart"] == pytest.approx(2.0)
        assert bd.bucket_dollars["busy"] == pytest.approx(2.0)
        assert bd.bucket_dollars["idle"] == pytest.approx(3.0)
        assert bd.total_dollars == pytest.approx(12.0)
        # Pro-rata: [8,9) all to A; [9,10) split 50/50.
        assert bd.batch_cost_dollars[10] == pytest.approx(1.5)
        assert bd.batch_cost_dollars[11] == pytest.approx(0.5)
        assert bd.attributed_dollars() == pytest.approx(12.0)

    def test_every_second_lands_in_exactly_one_bucket(self):
        meter = CostMeter()
        meter.on_acquire(1, make_spec(), 0.0, 5.0)
        meter.on_spawn(1, 5.0, 7.0)
        log_batch(meter, 1, "m", 1, 2, 6.0, 9.0)  # overlaps the spawn
        meter.on_release(1, 10.0)
        bd = meter.summarize(10.0)
        assert sum(bd.bucket_seconds.values()) == pytest.approx(10.0)
        # Busy outranks coldstart over [6,7).
        assert bd.bucket_dollars["busy"] == pytest.approx(3.0)
        assert bd.bucket_dollars["coldstart"] == pytest.approx(1.0)

    def test_release_before_ready_is_all_reconfig(self):
        meter = CostMeter()
        meter.on_acquire(1, make_spec(provision_seconds=10.0), 0.0, 10.0)
        meter.on_release(1, 4.0)
        bd = meter.summarize(4.0)
        assert bd.bucket_dollars["reconfig"] == pytest.approx(4.0)
        assert bd.total_dollars == pytest.approx(4.0)

    def test_instant_acquire_has_no_reconfig(self):
        meter = CostMeter()
        meter.on_acquire(1, make_spec(), 0.0, 0.0)
        meter.on_release(1, 3.0)
        bd = meter.summarize(3.0)
        assert bd.bucket_dollars["reconfig"] == 0.0
        assert bd.bucket_dollars["idle"] == pytest.approx(3.0)

    def test_intervals_clip_to_lease_bounds(self):
        """A spawn scheduled past release only bills its in-lease part."""
        meter = CostMeter()
        meter.on_acquire(1, make_spec(provision_seconds=0.0), 0.0, 0.0)
        meter.on_spawn(1, 1.0, 6.0)
        meter.on_release(1, 3.0)
        bd = meter.summarize(3.0)
        assert bd.bucket_dollars["coldstart"] == pytest.approx(2.0)
        assert bd.bucket_dollars["idle"] == pytest.approx(1.0)
        assert bd.total_dollars == pytest.approx(3.0)

    def test_hooks_after_release_are_ignored(self):
        meter = CostMeter()
        meter.on_acquire(1, make_spec(), 0.0, 0.0)
        meter.on_release(1, 2.0)
        meter.on_spawn(1, 2.0, 4.0)  # ContainerPool event firing late
        log_batch(meter, 1, "m", 1, 4, 2.0, 3.0)  # outside the lease
        bd = meter.summarize(5.0)
        assert bd.total_dollars == pytest.approx(2.0)
        assert bd.bucket_dollars["busy"] == 0.0
        assert not bd.batch_cost_dollars

    def test_open_lease_billed_to_now_without_closing(self):
        meter = CostMeter()
        meter.on_acquire(1, make_spec(), 0.0, 0.0)
        bd = meter.summarize(4.0)
        assert bd.total_dollars == pytest.approx(4.0)
        # The lease is still open: a later summary sees more dollars.
        bd2 = meter.summarize(6.0)
        assert bd2.total_dollars == pytest.approx(6.0)
        assert len(bd2.leases) == 1

    def test_overlapping_leases_both_billed(self):
        """Reconfiguration runs two leases concurrently; both itemize."""
        meter = CostMeter()
        meter.on_acquire(1, make_spec(), 0.0, 0.0)
        meter.on_acquire(2, make_spec(provision_seconds=3.0), 5.0, 8.0)
        meter.on_release(1, 9.0)
        meter.on_release(2, 10.0)
        bd = meter.summarize(10.0)
        assert bd.total_dollars == pytest.approx(9.0 + 5.0)
        assert len(bd.leases) == 2
        assert bd.leases[0].node_id == 1  # acquisition order
        assert bd.leases[1].bucket_dollars["reconfig"] == pytest.approx(3.0)

    def test_spent_is_live_and_non_mutating(self):
        meter = CostMeter()
        meter.on_acquire(1, make_spec(), 0.0, 0.0)
        assert meter.spent(2.0) == pytest.approx(2.0)
        assert meter.spent(3.0) == pytest.approx(3.0)
        meter.on_release(1, 4.0)
        meter.on_acquire(2, make_spec(), 4.0, 4.0)
        assert meter.spent(5.0) == pytest.approx(5.0)

    def test_batch_spanning_multiple_leases_unaffected_by_others(self):
        """Busy attribution stays within the lease the batch ran on."""
        meter = CostMeter()
        meter.on_acquire(1, make_spec(), 0.0, 0.0)
        log_batch(meter, 1, "m", 1, 8, 1.0, 2.0)
        meter.on_release(1, 2.0)
        meter.on_acquire(2, make_spec(), 2.0, 2.0)
        log_batch(meter, 2, "m", 2, 8, 2.0, 4.0)
        meter.on_release(2, 4.0)
        bd = meter.summarize(4.0)
        assert bd.batch_cost_dollars[1] == pytest.approx(1.0)
        assert bd.batch_cost_dollars[2] == pytest.approx(2.0)
        cell = bd.by_model_spec[("m", "test.node")]
        assert cell.requests == 16
        assert cell.batches == 2
        assert cell.busy_dollars == pytest.approx(3.0)

    def test_bucket_keys_are_stable(self):
        meter = CostMeter()
        bd = meter.summarize(0.0)
        assert tuple(bd.bucket_dollars) == BUCKETS
        assert bd.total_dollars == 0.0
        assert bd.attributed_dollars() == 0.0


class TestBudgetMonitor:
    def test_fires_once_then_resolves_once(self):
        meter = CostMeter()
        tracer = Tracer()
        mon = CostBudgetMonitor(
            meter, tracer=tracer, budget_dollars=5.0,
            window_seconds=10.0, horizon_seconds=100.0,
        )
        meter.on_acquire(1, make_spec(), 0.0, 0.0)  # $1/s burn
        mon.sample(0.0)
        assert not mon.firing  # single point: no window yet
        mon.sample(1.0)
        assert mon.firing  # projects ~$100 over the horizon
        mon.sample(2.0)
        assert mon.alerts_emitted == 1  # edge-triggered, not re-fired
        meter.on_release(1, 3.0)
        mon.sample(98.0)  # burn rate collapsed, spend < budget
        assert not mon.firing
        assert mon.alerts_emitted == 2
        states = [
            e.attrs["state"]
            for e in tracer.events
            if e.name == "budget_alert"
        ]
        assert states == ["firing", "resolved"]

    def test_no_budget_means_no_alerts_but_live_burn_rate(self):
        meter = CostMeter()
        mon = CostBudgetMonitor(meter, window_seconds=10.0)
        meter.on_acquire(1, make_spec(), 0.0, 0.0)
        mon.sample(0.0)
        mon.sample(2.0)
        assert mon.burn_rate_per_hour == pytest.approx(3600.0)
        assert not mon.firing
        assert mon.alerts_emitted == 0

    def test_projection_uses_remaining_horizon(self):
        meter = CostMeter()
        mon = CostBudgetMonitor(
            meter, budget_dollars=1000.0, window_seconds=10.0,
            horizon_seconds=10.0,
        )
        meter.on_acquire(1, make_spec(), 0.0, 0.0)
        mon.sample(0.0)
        projected = mon.sample(4.0)
        # $4 spent + $1/s * 6s remaining.
        assert projected == pytest.approx(10.0)
        assert not mon.firing

    def test_window_evicts_old_samples(self):
        meter = CostMeter()
        mon = CostBudgetMonitor(meter, window_seconds=5.0)
        meter.on_acquire(1, make_spec(), 0.0, 0.0)
        for t in (0.0, 2.0, 4.0, 6.0, 8.0):
            mon.sample(t)
        assert len(mon._samples) <= 4
        assert mon.burn_rate_per_hour == pytest.approx(3600.0)

    def test_invalid_parameters_rejected(self):
        meter = CostMeter()
        with pytest.raises(ValueError):
            CostBudgetMonitor(meter, window_seconds=0.0)
        with pytest.raises(ValueError):
            CostBudgetMonitor(meter, budget_dollars=-1.0)

    def test_disabled_tracer_swallows_events(self):
        meter = CostMeter()
        tracer = Tracer(enabled=False)
        mon = CostBudgetMonitor(
            meter, tracer=tracer, budget_dollars=0.5,
            window_seconds=10.0, horizon_seconds=100.0,
        )
        meter.on_acquire(1, make_spec(), 0.0, 0.0)
        mon.sample(0.0)
        mon.sample(1.0)
        assert mon.firing
        assert mon.alerts_emitted == 1
        assert not tracer.events


class TestConservationOnRealRuns:
    @pytest.fixture
    def scenario(self):
        from repro.framework.slo import SLO
        from repro.hardware.profiles import ProfileService
        from repro.workloads.models import get_model
        from repro.workloads.traces import poisson_trace

        model = get_model("resnet50")
        profiles = ProfileService()
        slo = SLO()
        trace = poisson_trace(
            rate_rps=model.peak_rps, duration=60.0, seed=0
        )
        return model, profiles, slo, trace

    def _run(self, scenario, scheme="paldia", tracer=None, config=None):
        from repro.experiments.schemes import make_policy
        from repro.framework.system import ServerlessRun

        model, profiles, slo, trace = scenario
        policy = make_policy(
            scheme, model, profiles, slo.target_seconds, trace
        )
        run = ServerlessRun(
            model, trace, policy, profiles, slo, config, tracer=tracer
        )
        return run.execute(), run

    def test_dollar_conservation_identity(self, scenario):
        """Itemized buckets and per-request attribution both sum to
        RunResult.total_cost within 1e-9 on the reference scenario."""
        result, _ = self._run(scenario, tracer=Tracer())
        bd = result.cost_breakdown
        assert bd is not None
        assert math.isclose(
            bd.total_dollars, result.total_cost,
            rel_tol=1e-9, abs_tol=1e-12,
        )
        assert math.isclose(
            bd.attributed_dollars(), result.total_cost,
            rel_tol=1e-9, abs_tol=1e-12,
        )
        assert math.isclose(
            sum(bd.bucket_dollars.values()), bd.total_dollars,
            rel_tol=1e-9, abs_tol=1e-12,
        )
        # Every bucket saw traffic on this scenario.
        assert bd.bucket_dollars["busy"] > 0
        assert bd.bucket_dollars["idle"] > 0

    def test_spec_split_matches_result(self, scenario):
        result, _ = self._run(scenario, tracer=Tracer())
        bd = result.cost_breakdown
        assert set(bd.spec_dollars) == set(result.cost_by_spec)
        for spec, dollars in bd.spec_dollars.items():
            assert math.isclose(
                dollars, result.cost_by_spec[spec],
                rel_tol=1e-9, abs_tol=1e-12,
            )
        assert math.isclose(
            sum(result.cost_by_spec.values()), result.total_cost,
            rel_tol=1e-9, abs_tol=1e-12,
        )

    def test_metered_run_matches_unmetered_totals(self, scenario):
        """The meter observes; it must not change the simulation."""
        r_plain, _ = self._run(scenario)
        r_traced, _ = self._run(scenario, tracer=Tracer())
        assert r_plain.total_cost == r_traced.total_cost
        assert r_plain.n_switches == r_traced.n_switches
        assert r_plain.cold_starts == r_traced.cold_starts
        assert r_plain.cost_breakdown is None
        assert r_plain.budget_alerts == 0

    def test_cost_meter_off_leaves_traced_run_bare(self, scenario):
        from repro.framework.system import RunConfig

        result, run = self._run(
            scenario, tracer=Tracer(), config=RunConfig(cost_meter=False)
        )
        assert run.obs.costmeter is None
        assert run.obs.cost_monitor is None
        assert result.cost_breakdown is None

    def test_tiny_budget_fires_alert_on_real_run(self, scenario):
        from repro.framework.system import RunConfig

        tracer = Tracer()
        result, _ = self._run(
            scenario, tracer=tracer,
            config=RunConfig(cost_budget_dollars=1e-4),
        )
        assert result.budget_alerts >= 1
        alerts = [e for e in tracer.events if e.name == "budget_alert"]
        assert alerts and alerts[0].attrs["state"] == "firing"
        assert alerts[0].attrs["budget_dollars"] == pytest.approx(1e-4)
