"""Fig 12: additional real-world traces.

(a) Wikipedia diurnal trace (peak ~170 rps) with ResNet 50: the sustained
high-traffic plateaus exacerbate the cost-effective baselines' failures
(84.39% / 79.93%) while Paldia holds 99.25% at ~4% extra cost.
(b) Erratic, dense Twitter trace (5x the Azure mean) with DPN 92:
baselines fall to ~71%, Paldia holds ~98.5% at ~7% extra cost.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentReport, PAPER_CLAIMS
from repro.experiments.registry import register_experiment
from repro.experiments.runner import run_matrix
from repro.experiments.schemes import SCHEMES
from repro.experiments.trace_factories import twitter_factory, wiki_factory

__all__ = ["run"]


@register_experiment("fig12", title="Wikipedia and Twitter trace sensitivity")
def run(
    duration: float = 600.0,
    repetitions: int = 2,
    seed0: int = 1,
) -> ExperimentReport:
    """Regenerate Fig 12 (both traces)."""
    parts = (
        ("wiki", "resnet50", wiki_factory(duration)),
        ("twitter", "dpn92", twitter_factory(duration)),
    )
    rows = []
    for trace_name, model, factory in parts:
        matrix = run_matrix(
            schemes=SCHEMES,
            model_names=[model],
            trace_factory=factory,
            repetitions=repetitions,
            seed0=seed0,
        )
        cheapest = min(
            matrix.summary(s, model).cost_dollars
            for s in SCHEMES
            if s.endswith("$")
        )
        for scheme in SCHEMES:
            s = matrix.summary(scheme, model)
            rows.append(
                [
                    trace_name,
                    scheme,
                    model,
                    round(s.slo_compliance_percent, 2),
                    round(s.cost_dollars, 4),
                    round(s.cost_dollars / cheapest - 1.0, 3),
                ]
            )
    return ExperimentReport(
        experiment_id="fig12",
        title="Wikipedia and Twitter traces: SLO compliance and cost",
        headers=["trace", "scheme", "model", "slo_%", "cost_$", "extra_vs_$"],
        rows=rows,
        paper_reference={**{f"wiki_{k}": v for k, v in PAPER_CLAIMS["fig12a"].items()},
                         **{f"twitter_{k}": v for k, v in PAPER_CLAIMS["fig12b"].items()}},
    )
