"""Fig 13: adverse scenarios — resource exhaustion and node failures.

(a) GoogleNet under a ~700 rps Poisson trace that overwhelms even the
V100: every scheme ends up on the V100 (same cost), so the comparison
isolates job distribution — MPS-only collapses (~33%), time-only queues
(~62%), Paldia's hybrid manages occupancy (~97.6%).
(b) DenseNet 121 with the serving node failing for one minute out of every
two: schemes fail over to more performant hardware; Paldia reaches the
highest compliance (~99.8%) while the (P) schemes *lose* performance
(their failover is necessarily a downgrade).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.experiments.base import ExperimentReport, PAPER_CLAIMS
from repro.experiments.registry import register_experiment
from repro.experiments.runner import run_matrix
from repro.experiments.schemes import SCHEMES
from repro.experiments.trace_factories import azure_factory, poisson_factory
from repro.framework.system import RunConfig
from repro.simulator.chaos import ChaosSpec, PeriodicOutage

__all__ = ["run", "EXHAUSTION_MODEL", "FAILURE_MODEL"]

EXHAUSTION_MODEL = "googlenet"
FAILURE_MODEL = "densenet121"


@register_experiment("fig13", title="Resource exhaustion and node failures")
def run(
    duration: float = 420.0,
    repetitions: int = 2,
    exhaustion_rate: float = 1250.0,
    parallel: Optional[bool] = None,
    seed0: int = 1,
) -> ExperimentReport:
    """Regenerate Fig 13 (both scenarios)."""
    rows = []
    # --- (a) resource exhaustion ----------------------------------------
    # "All schemes resort to using the V100" (Section VI-B): the study is
    # run with the catalog pinned to the most performant GPU.
    matrix = run_matrix(
        schemes=SCHEMES,
        model_names=[EXHAUSTION_MODEL],
        trace_factory=poisson_factory(exhaustion_rate, duration),
        repetitions=repetitions,
        parallel=parallel,
        seed0=seed0,
        catalog_names=("p3.2xlarge",),
    )
    for scheme in SCHEMES:
        s = matrix.summary(scheme, EXHAUSTION_MODEL)
        rows.append(
            ["exhaustion", scheme, EXHAUSTION_MODEL,
             round(s.slo_compliance_percent, 2), round(s.cost_dollars, 4)]
        )
    # --- (b) node failures ----------------------------------------------
    config = RunConfig(
        chaos=ChaosSpec(
            faults=(
                PeriodicOutage(
                    period_seconds=120.0,
                    downtime_seconds=60.0,
                    first_failure_at=60.0,
                ),
            )
        )
    )
    matrix = run_matrix(
        schemes=SCHEMES,
        model_names=[FAILURE_MODEL],
        trace_factory=azure_factory(duration),
        repetitions=repetitions,
        config=config,
        parallel=parallel,
        seed0=seed0,
    )
    for scheme in SCHEMES:
        s = matrix.summary(scheme, FAILURE_MODEL)
        rows.append(
            ["node_failures", scheme, FAILURE_MODEL,
             round(s.slo_compliance_percent, 2), round(s.cost_dollars, 4)]
        )
    return ExperimentReport(
        experiment_id="fig13",
        title="Adverse scenarios: resource exhaustion and node failures",
        headers=["scenario", "scheme", "model", "slo_%", "cost_$"],
        rows=rows,
        paper_reference={**{f"a_{k}": v for k, v in PAPER_CLAIMS["fig13a"].items()},
                         **{f"b_{k}": v for k, v in PAPER_CLAIMS["fig13b"].items()}},
    )
