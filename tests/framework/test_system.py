"""End-to-end framework tests: every scheme over short traces."""

import gc
import weakref

import pytest

from repro.baselines.infless_llama import InflessLlamaPolicy
from repro.baselines.molecule import MoleculePolicy
from repro.baselines.oracle import OraclePolicy
from repro.core.paldia import PaldiaPolicy
from repro.framework.system import RunConfig, ServerlessRun
from repro.simulator.chaos import ChaosSpec, PeriodicOutage
from repro.workloads.traces import azure_trace, constant_trace


def run_scheme(policy_cls, model, profiles, slo, trace, config=None, **kw):
    policy = policy_cls(model, profiles, slo.target_seconds, **kw)
    return ServerlessRun(model, trace, policy, profiles, slo, config).execute()


@pytest.fixture
def short_trace(resnet50):
    return azure_trace(peak_rps=resnet50.peak_rps, duration=90.0, seed=2)


class TestConservation:
    def test_all_requests_accounted(self, resnet50, profiles, slo, short_trace):
        r = run_scheme(PaldiaPolicy, resnet50, profiles, slo, short_trace)
        assert r.offered_requests == short_trace.n_requests
        assert r.completed_requests + r.unserved_requests == r.offered_requests

    def test_molecule_conserves_too(self, resnet50, profiles, slo, short_trace):
        r = run_scheme(MoleculePolicy, resnet50, profiles, slo, short_trace)
        assert r.completed_requests + r.unserved_requests == r.offered_requests

    def test_run_executes_once(self, resnet50, profiles, slo, short_trace):
        policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
        run = ServerlessRun(resnet50, short_trace, policy, profiles, slo)
        run.execute()
        with pytest.raises(RuntimeError):
            run.execute()

    @pytest.mark.parametrize(
        "policy_cls", [MoleculePolicy, PaldiaPolicy, OraclePolicy]
    )
    def test_finished_run_is_freed_without_the_cycle_collector(
        self, policy_cls, resnet50, profiles, slo, short_trace
    ):
        """Nothing the dispatch path keeps (job hooks, container waiters)
        or the policy keeps (Paldia's selector) refers back to the run, so
        a sweep of many runs does not hold the finished ones until the
        cycle collector runs."""
        extra = (short_trace,) if policy_cls is OraclePolicy else ()
        policy = policy_cls(resnet50, profiles, slo.target_seconds, *extra)
        run = ServerlessRun(resnet50, short_trace, policy, profiles, slo)
        result = run.execute()
        assert result.completed_requests > 0
        alive = weakref.ref(run)
        gc.disable()
        try:
            del run, policy
            assert alive() is None
        finally:
            gc.enable()


class TestCostInvariants:
    def test_cost_positive_and_bounded(self, resnet50, profiles, slo, short_trace):
        r = run_scheme(PaldiaPolicy, resnet50, profiles, slo, short_trace)
        horizon_h = (short_trace.duration + 30.0) / 3600.0
        most_expensive = max(hw.price_per_hour for hw in profiles.catalog)
        assert 0 < r.total_cost <= 3 * most_expensive * horizon_h

    def test_performant_scheme_costs_v100_rate(self, resnet50, profiles, slo,
                                               short_trace):
        r = run_scheme(
            InflessLlamaPolicy, resnet50, profiles, slo, short_trace,
            cost_effective=False,
        )
        assert set(r.time_by_spec) == {"p3.2xlarge"}

    def test_cost_by_spec_sums_to_total(self, resnet50, profiles, slo, short_trace):
        r = run_scheme(PaldiaPolicy, resnet50, profiles, slo, short_trace)
        assert sum(r.cost_by_spec.values()) == pytest.approx(r.total_cost)


class TestSteadyState:
    def test_low_constant_rate_fully_compliant(self, resnet50, profiles, slo):
        trace = constant_trace(10.0, 60.0)
        r = run_scheme(PaldiaPolicy, resnet50, profiles, slo, trace)
        assert r.slo_compliance >= 0.99

    def test_low_rate_served_on_cpu(self, resnet50, profiles, slo):
        trace = constant_trace(10.0, 60.0)
        r = run_scheme(PaldiaPolicy, resnet50, profiles, slo, trace)
        assert any(not profiles.catalog.get(n).is_gpu for n in r.time_by_spec)

    def test_performant_always_compliant(self, resnet50, profiles, slo, short_trace):
        r = run_scheme(
            MoleculePolicy, resnet50, profiles, slo, short_trace,
            cost_effective=False,
        )
        assert r.slo_compliance >= 0.99


class TestAdverseConfigs:
    def test_failure_injection_runs(self, resnet50, profiles, slo):
        trace = constant_trace(10.0, 150.0)
        config = RunConfig(chaos=ChaosSpec(faults=(
            PeriodicOutage(60.0, 20.0, first_failure_at=30.0),
        )))
        policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
        run = ServerlessRun(resnet50, trace, policy, profiles, slo, config)
        r = run.execute()
        # Onsets at 30, 90 (150 is the horizon and never fires).
        assert run._chaos.injected["periodic_outage"] == 2
        assert r.completed_requests + r.unserved_requests == r.offered_requests
        # Failover means more than one node type was leased.
        assert len(r.time_by_spec) >= 2

    def test_sebs_colocation_degrades_compliance(self, resnet50, profiles, slo):
        trace = constant_trace(25.0, 90.0)
        base = run_scheme(PaldiaPolicy, resnet50, profiles, slo, trace)
        colo = run_scheme(
            PaldiaPolicy, resnet50, profiles, slo, trace,
            RunConfig(sebs_colocation=True, sebs_invocation_rps=10.0),
        )
        assert colo.slo_compliance <= base.slo_compliance + 1e-9

    def test_oracle_runs_clean(self, resnet50, profiles, slo, short_trace):
        policy = OraclePolicy(resnet50, profiles, slo.target_seconds, short_trace)
        r = ServerlessRun(resnet50, short_trace, policy, profiles, slo).execute()
        assert r.slo_compliance > 0.9


class TestResultFields:
    def test_tail_breakdown_present(self, resnet50, profiles, slo, short_trace):
        r = run_scheme(PaldiaPolicy, resnet50, profiles, slo, short_trace)
        assert r.tail_breakdown["total"] > 0

    def test_mode_split_modes(self, resnet50, profiles, slo, short_trace):
        r = run_scheme(InflessLlamaPolicy, resnet50, profiles, slo, short_trace,
                       cost_effective=False)
        assert set(r.mode_split) <= {"spatial", "temporal"}
        assert "spatial" in r.mode_split

    def test_energy_positive(self, resnet50, profiles, slo, short_trace):
        r = run_scheme(PaldiaPolicy, resnet50, profiles, slo, short_trace)
        assert r.energy_joules > 0
        assert r.avg_watts > 0

    def test_utilization_in_unit_range(self, resnet50, profiles, slo, short_trace):
        r = run_scheme(PaldiaPolicy, resnet50, profiles, slo, short_trace)
        for util in r.utilization_by_spec.values():
            assert 0.0 <= util <= 1.0
