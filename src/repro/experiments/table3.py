"""Table III: mixed workloads — co-located 'regular' serverless functions.

SeBS-style CPU-bound functions run on the host of every serving node.  The
cost-effective schemes lose up to ~10 points (most when serving from
CPU-only nodes); Paldia still holds ~95%; the (P) schemes barely notice
(V100 nodes only feel the host-side data path).
"""

from __future__ import annotations

from repro.experiments.base import ExperimentReport, PAPER_CLAIMS
from repro.experiments.registry import register_experiment
from repro.experiments.runner import run_matrix
from repro.experiments.schemes import SCHEMES
from repro.experiments.trace_factories import azure_factory
from repro.framework.system import RunConfig

__all__ = ["run", "MODEL"]

MODEL = "resnet50"


@register_experiment("table3", title="SeBS co-location sensitivity")
def run(
    duration: float = 600.0,
    repetitions: int = 2,
    sebs_invocation_rps: float = 4.0,
    seed0: int = 1,
) -> ExperimentReport:
    """Regenerate Table III."""
    config = RunConfig(
        sebs_colocation=True, sebs_invocation_rps=sebs_invocation_rps
    )
    matrix = run_matrix(
        schemes=SCHEMES,
        model_names=[MODEL],
        trace_factory=azure_factory(duration),
        repetitions=repetitions,
        config=config,
        seed0=seed0,
    )
    baseline = run_matrix(
        schemes=SCHEMES,
        model_names=[MODEL],
        trace_factory=azure_factory(duration),
        repetitions=repetitions,
        seed0=seed0,
    )
    rows = []
    for scheme in SCHEMES:
        with_sebs = matrix.summary(scheme, MODEL).slo_compliance_percent
        without = baseline.summary(scheme, MODEL).slo_compliance_percent
        rows.append(
            [scheme, round(with_sebs, 2), round(without, 2),
             round(without - with_sebs, 2)]
        )
    return ExperimentReport(
        experiment_id="table3",
        title="SLO compliance under SeBS co-location (Table III)",
        headers=["scheme", "slo_%_with_sebs", "slo_%_without", "degradation_pp"],
        rows=rows,
        paper_reference=PAPER_CLAIMS["table3"],
    )
