"""Framework edge cases: switching, draining, pending windows, chunks."""

import numpy as np
import pytest

from repro.baselines.offline_hybrid import OfflineHybridPolicy
from repro.core.paldia import PaldiaPolicy
from repro.framework.system import ServerlessRun
from repro.workloads.traces import Trace, azure_trace, constant_trace


def make_step_trace(low, high, t_switch, duration, bin_seconds=1.0):
    """Deterministic low->high step trace (stresses escalation paths)."""
    n_bins = int(duration / bin_seconds)
    rates = np.where(
        np.arange(n_bins) * bin_seconds < t_switch, float(low), float(high)
    )
    arrivals = []
    for i, r in enumerate(rates):
        count = int(r * bin_seconds)
        if count:
            arrivals.append(i * bin_seconds + (np.arange(count) + 0.5) / r)
    arr = np.concatenate(arrivals) if arrivals else np.empty(0)
    return Trace("step", np.sort(arr), float(duration), rates, bin_seconds)


class TestEscalation:
    def test_step_trace_triggers_switch(self, resnet50, profiles, slo):
        trace = make_step_trace(8.0, 200.0, 30.0, 90.0)
        policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
        r = ServerlessRun(resnet50, trace, policy, profiles, slo).execute()
        assert r.n_switches >= 1
        assert any(profiles.catalog.get(n).is_gpu for n in r.time_by_spec)

    def test_step_up_then_down_returns_to_cheap(self, resnet50, profiles, slo):
        trace = make_step_trace(200.0, 8.0, 45.0, 180.0)
        policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
        r = ServerlessRun(resnet50, trace, policy, profiles, slo).execute()
        # Started on a GPU (200 rps), must end on cheap hardware for the
        # long low stretch.
        assert any(not profiles.catalog.get(n).is_gpu for n in r.time_by_spec)

    def test_pinned_policy_never_switches(self, resnet50, profiles, slo, m60):
        trace = azure_trace(peak_rps=resnet50.peak_rps, duration=60.0, seed=2)
        policy = OfflineHybridPolicy(resnet50, profiles, slo.target_seconds,
                                     m60, 0.5)
        r = ServerlessRun(resnet50, trace, policy, profiles, slo).execute()
        assert r.n_switches == 0
        assert set(r.time_by_spec) == {m60.name}


class TestLeaseHygiene:
    def test_no_dangling_leases_after_run(self, resnet50, profiles, slo):
        trace = make_step_trace(8.0, 200.0, 30.0, 120.0)
        policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
        run = ServerlessRun(resnet50, trace, policy, profiles, slo)
        run.execute()
        # At most the currently-serving node holds an open lease.
        assert len(run.cluster._active_leases) <= 2

    def test_lease_time_never_exceeds_horizon_per_node(self, resnet50,
                                                       profiles, slo):
        trace = constant_trace(10.0, 60.0)
        policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
        r = ServerlessRun(resnet50, trace, policy, profiles, slo).execute()
        horizon = trace.duration + 30.0
        for seconds in r.time_by_spec.values():
            assert seconds <= horizon + 1e-6


class TestEmptyAndTiny:
    def test_single_request_trace(self, resnet50, profiles, slo):
        trace = Trace("one", np.array([1.0]), 10.0, np.ones(10) * 0.1, 1.0)
        policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
        r = ServerlessRun(resnet50, trace, policy, profiles, slo).execute()
        assert r.offered_requests == 1
        assert r.completed_requests == 1

    def test_empty_trace(self, resnet50, profiles, slo):
        trace = Trace("none", np.empty(0), 10.0, np.zeros(10), 1.0)
        policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
        r = ServerlessRun(resnet50, trace, policy, profiles, slo).execute()
        assert r.offered_requests == 0
        assert r.slo_compliance == 1.0
