"""Fig 6: CDF of end-to-end latencies for SENet 18.

Paldia stays within the SLO through P99; the cost-effective baselines
exceed it from around P80; the (P) schemes sit far inside it.
"""

from __future__ import annotations


import numpy as np

from repro.analysis.stats import percentile
from repro.experiments.base import ExperimentReport, PAPER_CLAIMS
from repro.experiments.registry import register_experiment
from repro.experiments.runner import run_matrix
from repro.experiments.schemes import SCHEMES
from repro.experiments.trace_factories import azure_factory

__all__ = ["run", "MODEL", "PERCENTILES"]

MODEL = "senet18"
PERCENTILES = (50.0, 80.0, 90.0, 95.0, 99.0)


@register_experiment("fig6", title="Latency percentile curves", supports_repetitions=False)
def run(
    duration: float = 600.0,
    repetitions: int = 1,
    seed0: int = 1,
) -> ExperimentReport:
    """Regenerate Fig 6 as a percentile table (the CDF's key points)."""
    matrix = run_matrix(
        schemes=SCHEMES,
        model_names=[MODEL],
        trace_factory=azure_factory(duration),
        repetitions=repetitions,
        seed0=seed0,
        keep_metrics=True,
    )
    rows = []
    for scheme in SCHEMES:
        lat = np.concatenate(
            [r.metrics.latencies() for r in matrix.cell_runs(scheme, MODEL)]
        )
        row: list = [scheme]
        for q in PERCENTILES:
            row.append(round(percentile(lat, q) * 1e3, 1))
        # First percentile that exceeds the SLO (None if the whole measured
        # range fits).
        exceed = next(
            (q for q in PERCENTILES if percentile(lat, q) > 0.200), None
        )
        row.append(exceed if exceed is not None else "-")
        rows.append(row)
    return ExperimentReport(
        experiment_id="fig6",
        title=f"Latency CDF key percentiles (ms), {MODEL}",
        headers=["scheme"] + [f"P{int(q)}" for q in PERCENTILES] + ["exceeds_slo_at"],
        rows=rows,
        paper_reference=PAPER_CLAIMS["fig6"],
    )
