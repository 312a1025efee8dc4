"""Fig 1: motivation — tail breakdown + SLO compliance of sharing modes.

Co-runs SENet 18 and DenseNet 121 on one pinned GPU under the stable Wiki
trace and compares pure time sharing / pure MPS on the V100 and M60 against
the offline-swept hybrid on the M60 (Section II's quantification of
tradeoffs).
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.base import ExperimentReport, PAPER_CLAIMS
from repro.experiments.registry import register_experiment
from repro.experiments.motivation import (
    MOTIVATION_SCHEMES,
    run_motivation_scheme,
    sweep_offline_hybrid,
)

__all__ = ["run"]


@register_experiment("fig1", title="Status-quo schemes on the static hybrid baseline")
def run(
    duration: float = 240.0,
    seed: int = 0,
    hybrid_fractions: Optional[tuple[float, float]] = None,
) -> ExperimentReport:
    """Regenerate Fig 1.

    Parameters
    ----------
    hybrid_fractions:
        Pre-computed offline-hybrid temporal fractions; when None the
        offline sweep runs first (slower).
    """
    if hybrid_fractions is None:
        hybrid_fractions = sweep_offline_hybrid(duration=duration, seed=seed)
    rows = []
    for scheme in MOTIVATION_SCHEMES:
        outcome = run_motivation_scheme(
            scheme, duration=duration, seed=seed,
            hybrid_fractions=hybrid_fractions,
        )
        for model in ("senet18", "densenet121"):
            bd = outcome.tail_breakdown_ms[model]
            rows.append(
                [
                    scheme,
                    model,
                    outcome.hardware,
                    round(outcome.compliance_percent[model], 2),
                    round(bd["min_possible_ms"], 1),
                    round(bd["queueing_ms"], 1),
                    round(bd["interference_ms"], 1),
                    outcome.hourly_cost,
                ]
            )
    return ExperimentReport(
        experiment_id="fig1",
        title="Motivation: P99 breakdown vs SLO compliance per sharing mode",
        headers=[
            "scheme", "model", "hardware", "slo_%",
            "min_possible_ms", "queueing_ms", "interference_ms", "$/h",
        ],
        rows=rows,
        paper_reference=PAPER_CLAIMS["fig1"],
        notes=(
            "Hybrid fractions (senet, densenet) = "
            f"{tuple(round(f, 2) for f in hybrid_fractions)}; flexible batch "
            "sizes used on all schemes (batch 128 cannot meet a 200 ms SLO "
            "on an M60 under our profile anchors)."
        ),
    )
