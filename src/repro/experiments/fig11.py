"""Fig 11: Paldia vs the clairvoyant Oracle.

Paldia lands within ~0.8% of the Oracle's SLO compliance (sometimes 0.1%)
at a cost within ~1% (the Oracle avoids hardware-transition overlap).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.base import ExperimentReport, PAPER_CLAIMS
from repro.experiments.registry import register_experiment
from repro.experiments.runner import run_matrix
from repro.experiments.trace_factories import azure_factory

__all__ = ["run", "DEFAULT_MODELS"]

DEFAULT_MODELS = ("resnet50", "senet18", "densenet121", "efficientnet_b0")


@register_experiment("fig11", title="Paldia vs the offline oracle")
def run(
    duration: float = 600.0,
    repetitions: int = 2,
    models: Optional[Sequence[str]] = None,
    seed0: int = 1,
) -> ExperimentReport:
    """Regenerate Fig 11."""
    model_names = list(models) if models is not None else list(DEFAULT_MODELS)
    matrix = run_matrix(
        schemes=("paldia", "oracle"),
        model_names=model_names,
        trace_factory=azure_factory(duration),
        repetitions=repetitions,
        seed0=seed0,
    )
    rows = []
    for model in model_names:
        p = matrix.summary("paldia", model)
        o = matrix.summary("oracle", model)
        rows.append(
            [
                model,
                round(p.slo_compliance_percent, 2),
                round(o.slo_compliance_percent, 2),
                round(o.slo_compliance_percent - p.slo_compliance_percent, 2),
                round(p.cost_dollars, 4),
                round(o.cost_dollars, 4),
            ]
        )
    return ExperimentReport(
        experiment_id="fig11",
        title="Paldia vs Oracle: SLO compliance and cost",
        headers=[
            "model", "paldia_slo_%", "oracle_slo_%", "gap_pp",
            "paldia_cost_$", "oracle_cost_$",
        ],
        rows=rows,
        paper_reference=PAPER_CLAIMS["fig11"],
    )
