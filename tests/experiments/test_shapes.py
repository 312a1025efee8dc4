"""Reproduction shape checks (slow-ish; these are the paper's headline
orderings on shortened traces)."""

from functools import partial

import pytest

from repro.experiments.runner import run_matrix
from repro.workloads.traces import azure_trace


def _azure(duration, model, seed):
    return azure_trace(peak_rps=model.peak_rps, duration=duration, seed=seed)


@pytest.fixture(scope="module")
def headline():
    return run_matrix(
        schemes=("paldia", "molecule_$", "infless_llama_$", "molecule_P"),
        model_names=["resnet50"],
        trace_factory=partial(_azure, 420.0),
        repetitions=2,
        executor="pool",
        seed0=1,
    )


class TestHeadlineShapes:
    def test_paldia_beats_cost_effective_baselines(self, headline):
        p = headline.summary("paldia", "resnet50").slo_compliance_percent
        mol = headline.summary("molecule_$", "resnet50").slo_compliance_percent
        inf = headline.summary("infless_llama_$", "resnet50").slo_compliance_percent
        assert p > mol
        assert p > inf

    def test_interference_agnostic_mps_is_worst(self, headline):
        mol = headline.summary("molecule_$", "resnet50").slo_compliance_percent
        inf = headline.summary("infless_llama_$", "resnet50").slo_compliance_percent
        assert inf < mol

    def test_performant_scheme_near_perfect(self, headline):
        molP = headline.summary("molecule_P", "resnet50").slo_compliance_percent
        assert molP >= 99.0

    def test_paldia_highly_compliant(self, headline):
        p = headline.summary("paldia", "resnet50").slo_compliance_percent
        assert p >= 95.0

    def test_performant_costs_multiples_of_paldia(self, headline):
        p = headline.summary("paldia", "resnet50").cost_dollars
        molP = headline.summary("molecule_P", "resnet50").cost_dollars
        assert molP / p >= 2.0

    def test_paldia_near_cost_effective_price(self, headline):
        p = headline.summary("paldia", "resnet50").cost_dollars
        mol = headline.summary("molecule_$", "resnet50").cost_dollars
        assert p <= 1.5 * mol
