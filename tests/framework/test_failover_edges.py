"""Failover edge cases: failures colliding with reconfiguration/horizon."""

import pytest

from repro.core.paldia import PaldiaPolicy
from repro.framework.system import RunConfig, ServerlessRun
from repro.simulator.chaos import ChaosSpec, PeriodicOutage
from repro.workloads.traces import constant_trace


def _armed_run(resnet50, profiles, slo, duration=60.0, config=None):
    trace = constant_trace(5.0, duration)
    policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
    run = ServerlessRun(resnet50, trace, policy, profiles, slo, config)
    run.arm()
    return run


class TestFailureMidReconfiguration:
    def test_failure_cancels_inflight_switch(self, resnet50, profiles, slo,
                                             v100):
        """A node failure while a reconfiguration is provisioning must
        cancel the switch (generation bump) and release the superseded
        node when it comes up — no traffic ever routes to it."""
        run = _armed_run(resnet50, profiles, slo)
        # Kick off a background switch at t=10; the V100 takes ~3 s to
        # provision, so the failure at t=10.5 lands mid-provisioning.
        run.sim.schedule_at(10.0, lambda: run._reconfigure(v100))
        run.sim.schedule_at(10.5, run._on_node_failure)
        run.sim.schedule_at(40.0, run._on_node_recovery)
        run.sim.run(until=run.trace.duration + 30.0)
        result = run.finalize()

        # The failure cancelled the in-flight reconfiguration.
        assert run._reconfig_target is None
        # The superseded V100 was released on arrival, the failover node
        # took over, and every request is accounted for.
        assert len(run.cluster._active_leases) <= 2
        total = result.completed_requests + result.unserved_requests
        assert total == result.offered_requests
        assert result.completed_requests > 0

    def test_double_failure_is_idempotent(self, resnet50, profiles, slo):
        """A second failure callback while the node is already gone (e.g.
        two overlapping fault streams) must not double-evict or crash."""
        run = _armed_run(resnet50, profiles, slo)

        def double_fail():
            run._on_node_failure()
            leases_after_first = set(run.cluster._active_leases)
            run._on_node_failure()  # _current is None: must be a no-op
            assert set(run.cluster._active_leases) == leases_after_first

        run.sim.schedule_at(15.0, double_fail)
        run.sim.schedule_at(45.0, run._on_node_recovery)
        run.sim.run(until=run.trace.duration + 30.0)
        result = run.finalize()
        total = result.completed_requests + result.unserved_requests
        assert total == result.offered_requests


class TestFailureAtHorizon:
    @pytest.fixture
    def run_at_horizon(self, resnet50, profiles, slo):
        """A schedule whose first onset lands exactly at trace end."""
        duration = 60.0
        config = RunConfig(chaos=ChaosSpec(faults=(
            PeriodicOutage(120.0, 30.0, first_failure_at=duration),
        )))
        trace = constant_trace(5.0, duration)
        policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
        return ServerlessRun(resnet50, trace, policy, profiles, slo, config)

    def test_onset_at_exact_horizon_never_fires(self, run_at_horizon):
        result = run_at_horizon.execute()
        assert run_at_horizon._chaos.injected["periodic_outage"] == 0
        # No failover ever happened: the only switch is the initial lease.
        assert len(result.switch_log) == 1
        total = result.completed_requests + result.unserved_requests
        assert total == result.offered_requests

    def test_onset_just_inside_horizon_fires_once(self, resnet50, profiles,
                                                  slo):
        duration = 60.0
        config = RunConfig(chaos=ChaosSpec(faults=(
            PeriodicOutage(120.0, 30.0, first_failure_at=duration - 1.0),
        )))
        trace = constant_trace(5.0, duration)
        policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
        run = ServerlessRun(resnet50, trace, policy, profiles, slo, config)
        result = run.execute()
        assert run._chaos.injected["periodic_outage"] == 1
        total = result.completed_requests + result.unserved_requests
        assert total == result.offered_requests
