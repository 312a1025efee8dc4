"""Reconfiguration internals: retargeting, supersession, failover choice."""

import numpy as np
import pytest

from repro.core.paldia import PaldiaPolicy
from repro.framework.system import RunConfig, ServerlessRun
from repro.simulator.chaos import ChaosSpec, PeriodicOutage
from repro.workloads.traces import constant_trace


@pytest.fixture
def run(resnet50, profiles, slo):
    trace = constant_trace(10.0, 60.0)
    policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
    return ServerlessRun(resnet50, trace, policy, profiles, slo)


class TestRetargeting:
    def test_superseded_reconfiguration_releases_node(self, run, m60, v100):
        run._setup()
        sim = run.sim
        run._reconfigure(m60)
        gen_before = run._reconfig_gen
        run._reconfigure(v100)  # supersedes the M60 acquisition
        assert run._reconfig_gen == gen_before + 1
        sim.run(until=20.0)
        # The superseded M60 was released the moment it came up (its lease
        # lasted roughly its provisioning time); the V100 actually served.
        m60_leases = [l for l in run.cluster.leases if l.spec.name == m60.name]
        assert m60_leases and all(l.end is not None for l in m60_leases)
        assert all(
            l.duration(sim.now) < 2 * m60.provision_seconds for l in m60_leases
        )
        assert any(to == v100.name for _, _, to in run.switch_log)

    def test_switch_records_log_entry(self, run, v100):
        run._setup()
        run._reconfigure(v100)
        run.sim.run(until=20.0)
        assert any(to == v100.name for _, _, to in run.switch_log)

    def test_monitor_compares_against_inflight_target(self, run, m60):
        run._setup()
        run._reconfigure(m60)
        assert run._reconfig_target is m60


class TestFailoverChoice:
    def test_from_cpu_picks_cheapest_better(self, run, catalog):
        run._setup()
        choice = run._failover_choice(catalog.get("c6i.4xlarge"))
        # Better-ranked and cheapest among them: the M60 at $0.75.
        assert choice.name == "g3s.xlarge"

    def test_from_m60_picks_v100(self, run, catalog):
        run._setup()
        assert run._failover_choice(catalog.get("g3s.xlarge")).name == "p3.2xlarge"

    def test_from_v100_picks_next_best_available(self, run, catalog):
        run._setup()
        run._failed_specs.add("p3.2xlarge")
        choice = run._failover_choice(catalog.get("p3.2xlarge"))
        assert choice.name == "g3s.xlarge"

    def test_all_down_raises(self, run, catalog):
        run._setup()
        run._failed_specs.update(catalog.names())
        with pytest.raises(RuntimeError):
            run._failover_choice(catalog.get("p3.2xlarge"))


class TestFailureIntegration:
    def test_failed_spec_excluded_until_recovery(self, resnet50, profiles, slo):
        trace = constant_trace(10.0, 130.0)
        config = RunConfig(chaos=ChaosSpec(faults=(
            PeriodicOutage(
                period_seconds=100.0, downtime_seconds=40.0, first_failure_at=30.0
            ),
        )))
        policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
        run = ServerlessRun(resnet50, trace, policy, profiles, slo, config)
        r = run.execute()
        # Onsets at t=30 and t=130 (the latter at the horizon: suppressed).
        assert run._chaos.injected["periodic_outage"] == 1
        # The initial (CPU) node failed at t=30 and traffic continued.
        assert r.completed_requests + r.unserved_requests == r.offered_requests
        assert r.n_switches >= 1
        assert len(r.time_by_spec) >= 2

    def test_deescalation_suppressed_during_outage(self, resnet50, profiles,
                                                   slo, monkeypatch):
        trace = constant_trace(10.0, 120.0)
        config = RunConfig(chaos=ChaosSpec(faults=(
            PeriodicOutage(
                period_seconds=100.0, downtime_seconds=60.0, first_failure_at=20.0
            ),
        )))
        policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
        run = ServerlessRun(resnet50, trace, policy, profiles, slo, config)
        r = run.execute()
        assert run._chaos.injected["periodic_outage"] == 1
        # During the outage (20-80 s) no switch may move to a *less*
        # performant node than the failover target.
        ranks = {hw.name: hw.perf_rank for hw in profiles.catalog}
        during = [
            (t, frm, to) for (t, frm, to) in r.switch_log if 20.0 < t < 80.0
        ]
        for t, frm, to in during:
            if frm in ranks and to in ranks:
                assert ranks[to] <= ranks[frm], (t, frm, to)
