"""Tests for the Fig 1 motivation runner."""

import pytest

from repro.experiments.motivation import (
    MOTIVATION_SCHEMES,
    PinnedColocationRun,
    TenantSpec,
    run_motivation_scheme,
    sweep_offline_hybrid,
)
from repro.framework.slo import SLO
from repro.workloads.models import get_model
from repro.workloads.traces import constant_trace


class TestPinnedColocation:
    def test_two_tenants_share_one_device(self, profiles):
        tenants = [
            TenantSpec(get_model("senet18"), constant_trace(50.0, 20.0), 0.5),
            TenantSpec(get_model("densenet121"), constant_trace(20.0, 20.0), 0.5),
        ]
        run = PinnedColocationRun(
            tenants, profiles.catalog.get("g3s.xlarge"), profiles, SLO()
        )
        metrics = run.execute()
        assert metrics.completed_requests("senet18") > 0
        assert metrics.completed_requests("densenet121") > 0
        total = metrics.completed_requests() + metrics.unserved_requests
        assert total == metrics.total_requests_offered

    def test_empty_tenants_rejected(self, profiles):
        with pytest.raises(ValueError):
            PinnedColocationRun([], profiles.catalog.get("g3s.xlarge"))

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_fraction_outside_unit_interval_rejected(self, profiles, fraction):
        tenant = TenantSpec(
            get_model("senet18"), constant_trace(50.0, 5.0), fraction
        )
        with pytest.raises(ValueError, match="temporal fraction"):
            PinnedColocationRun(
                [tenant], profiles.catalog.get("g3s.xlarge"), profiles
            )


class TestMotivationSchemes:
    def test_scheme_roster(self):
        assert set(MOTIVATION_SCHEMES) == {
            "time_shared_P", "mps_only_P", "time_shared_$", "mps_only_$",
            "offline_hybrid",
        }

    def test_p_variants_use_v100(self):
        out = run_motivation_scheme("time_shared_P", duration=30.0)
        assert out.hardware == "p3.2xlarge"

    def test_dollar_variants_use_m60(self):
        out = run_motivation_scheme("mps_only_$", duration=30.0)
        assert out.hardware == "g3s.xlarge"

    def test_outcome_reports_both_models(self):
        out = run_motivation_scheme("time_shared_P", duration=30.0)
        assert set(out.compliance_percent) == {"senet18", "densenet121"}
        for bd in out.tail_breakdown_ms.values():
            assert set(bd) == {"min_possible_ms", "queueing_ms", "interference_ms"}

    def test_hybrid_uses_given_fractions(self):
        out = run_motivation_scheme(
            "offline_hybrid", duration=30.0, hybrid_fractions=(0.3, 0.3)
        )
        assert out.hardware == "g3s.xlarge"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_motivation_scheme("bogus", duration=10.0)


class TestOfflineSweep:
    def test_default_grid_simulates_each_fraction_pair_once(self, monkeypatch):
        # Coordinate-wise over the 11-point grid: the start pair, then 11
        # pairs per axis, of which the start pair recurs on axis 0 and the
        # axis-0 winner on axis 1 -- 21 distinct pairs.
        pairs = []
        execute = PinnedColocationRun.execute

        def counted(run):
            pairs.append(tuple(t.temporal_fraction for t in run.tenants))
            return execute(run)

        monkeypatch.setattr(PinnedColocationRun, "execute", counted)
        sweep_offline_hybrid(duration=20.0, seed=0)
        assert len(pairs) == len(set(pairs)) == 21


class TestCostExample:
    def test_cpu_serving_costs_more(self):
        from repro.experiments.motivation import cpu_vs_gpu_cost_example

        out = cpu_vs_gpu_cost_example()
        # Section II: matching one GPU node's ResNet-50 throughput with
        # CPU instances costs substantially more (the paper measures +86%
        # with m4.xlarge; the premium's sign and scale must reproduce).
        assert out["n_cpu_nodes"] >= 2
        assert out["cpu_premium"] > 0.3

    def test_incapable_cpu_rejected(self):
        import pytest

        from repro.experiments.motivation import cpu_vs_gpu_cost_example

        with pytest.raises(ValueError):
            cpu_vs_gpu_cost_example(model_name="bert", cpu_name="m4.xlarge")
