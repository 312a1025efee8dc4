"""Fig 4: P99 latency breakdowns for ResNet 50 and VGG 19.

The paper attributes 76% of INFless/Llama($)'s ResNet 50 tail to job
interference and 84% of Molecule($)'s VGG 19 tail to queueing; Paldia's
total overhead is ~59% lower than Molecule($)'s on VGG 19.
"""

from __future__ import annotations

from repro.analysis.breakdown import tail_breakdown_of
from repro.experiments.base import ExperimentReport, PAPER_CLAIMS
from repro.experiments.registry import register_experiment
from repro.experiments.runner import run_matrix
from repro.experiments.schemes import SCHEMES
from repro.experiments.trace_factories import azure_factory

__all__ = ["run", "MODELS"]

MODELS = ("resnet50", "vgg19")


@register_experiment("fig4", title="Violation latency breakdown", supports_repetitions=False)
def run(
    duration: float = 600.0,
    repetitions: int = 1,
    seed0: int = 1,
) -> ExperimentReport:
    """Regenerate Fig 4 (tail breakdowns need per-run metrics)."""
    matrix = run_matrix(
        schemes=SCHEMES,
        model_names=list(MODELS),
        trace_factory=azure_factory(duration),
        repetitions=repetitions,
        seed0=seed0,
        keep_metrics=True,
    )
    rows = []
    for model in MODELS:
        for scheme in SCHEMES:
            runs = matrix.cell_runs(scheme, model)
            bds = [tail_breakdown_of(r) for r in runs]
            n = len(bds)
            rows.append(
                [
                    scheme,
                    model,
                    round(sum(b.min_possible_ms for b in bds) / n, 1),
                    round(sum(b.queueing_ms for b in bds) / n, 1),
                    round(sum(b.interference_ms for b in bds) / n, 1),
                    round(sum(b.queueing_share for b in bds) / n, 3),
                    round(sum(b.interference_share for b in bds) / n, 3),
                    round(
                        sum(100 * r.slo_compliance for r in runs) / len(runs), 2
                    ),
                ]
            )
    return ExperimentReport(
        experiment_id="fig4",
        title="P99 latency breakdown (ms) and overhead shares",
        headers=[
            "scheme", "model", "min_possible_ms", "queueing_ms",
            "interference_ms", "queue_share", "interf_share", "slo_%",
        ],
        rows=rows,
        paper_reference=PAPER_CLAIMS["fig4"],
    )
