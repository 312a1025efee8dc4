"""Fig 3: SLO compliance of all schemes for all 12 vision models.

The paper's primary result: Paldia within ~0.38% of the (P) schemes and up
to ~13.3% above the cost-effective baselines, per model, on the Azure
trace.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.base import ExperimentReport, PAPER_CLAIMS
from repro.experiments.registry import register_experiment
from repro.experiments.runner import MatrixResult, run_matrix
from repro.experiments.schemes import SCHEMES
from repro.experiments.trace_factories import azure_factory
from repro.workloads.models import vision_models

__all__ = ["run"]


@register_experiment("fig3", title="SLO compliance across vision models")
def run(
    duration: float = 600.0,
    repetitions: int = 2,
    models: Optional[Sequence[str]] = None,
    seed0: int = 1,
) -> ExperimentReport:
    """Regenerate Fig 3 (optionally on a subset of the vision models)."""
    model_names = (
        list(models) if models is not None else [m.name for m in vision_models()]
    )
    matrix: MatrixResult = run_matrix(
        schemes=SCHEMES,
        model_names=model_names,
        trace_factory=azure_factory(duration),
        repetitions=repetitions,
        seed0=seed0,
    )
    rows = []
    for model in model_names:
        row: list = [model]
        for scheme in SCHEMES:
            row.append(round(matrix.summary(scheme, model).slo_compliance_percent, 2))
        rows.append(row)
    return ExperimentReport(
        experiment_id="fig3",
        title="SLO compliance (%) per vision model and scheme (Azure trace)",
        headers=["model"] + list(SCHEMES),
        rows=rows,
        paper_reference=PAPER_CLAIMS["fig3"],
    )
