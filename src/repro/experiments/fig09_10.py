"""Figs 9-10: large language models — SLO compliance and cost.

All cost-effective schemes pick pricier hardware for the very-high-FBR
language workloads (cost +~86% vs vision) yet still save ~72% vs the (P)
schemes; Paldia reaches ~99.5% compliance vs ~97.7% for the baselines.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentReport, PAPER_CLAIMS
from repro.experiments.registry import register_experiment
from repro.experiments.runner import run_matrix
from repro.experiments.schemes import SCHEMES
from repro.experiments.trace_factories import azure_factory
from repro.workloads.models import language_models

__all__ = ["run"]


@register_experiment("fig9_10", title="Language models: compliance and cost")
def run(
    duration: float = 600.0,
    repetitions: int = 2,
    seed0: int = 1,
) -> ExperimentReport:
    """Regenerate Figs 9 and 10 (one row per scheme x language model)."""
    model_names = [m.name for m in language_models()]
    matrix = run_matrix(
        schemes=SCHEMES,
        model_names=model_names,
        trace_factory=azure_factory(duration),
        repetitions=repetitions,
        seed0=seed0,
    )
    rows = []
    for model in model_names:
        max_cost = max(matrix.summary(s, model).cost_dollars for s in SCHEMES)
        for scheme in SCHEMES:
            s = matrix.summary(scheme, model)
            rows.append(
                [
                    scheme,
                    model,
                    round(s.slo_compliance_percent, 2),
                    round(s.cost_dollars, 4),
                    round(s.cost_dollars / max_cost, 3),
                ]
            )
    return ExperimentReport(
        experiment_id="fig9_10",
        title="Language models: SLO compliance and cost",
        headers=["scheme", "model", "slo_%", "cost_$", "cost_norm"],
        rows=rows,
        paper_reference={**PAPER_CLAIMS["fig9"], **PAPER_CLAIMS["fig10"]},
    )
