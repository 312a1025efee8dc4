"""Resilience study: fault-intensity sweep under stochastic crashes.

Not a paper figure — an extension study enabled by the chaos engine
(:mod:`repro.simulator.chaos`) and the resilience layer
(:mod:`repro.core.resilience`).  The serving node crashes at exponential
inter-arrival times; the sweep scales the crash rate (``intensity`` x the
base rate) and compares, for each cost-effective scheme, the
retry+breaker recovery policy against the retry-disabled baseline that
simply drops evicted work.

The claim under test (and the acceptance test in
``tests/core/test_resilience.py``): deadline-aware retry recovers part
of the evicted work within its SLO budget, so ``retry`` attains strictly
higher SLO compliance than ``drop``, without retrying anything past its
deadline.

The study runs BERT under a ten-second SLO rather than the vision
default of 200 ms.  Recovering evicted work requires the SLO budget to
outlive the failover (provisioning + cold start, ~5 s); under a 200 ms
budget every recovery policy is equivalent — all evicted work misses its
deadline regardless — and the sweep would degenerate.  Long-running
language inference with a lenient deadline is exactly the regime where a
recovery policy matters.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.resilience import ResilienceConfig
from repro.experiments.base import ExperimentReport
from repro.experiments.registry import register_experiment
from repro.experiments.runner import run_matrix
from repro.experiments.schemes import COST_EFFECTIVE_SCHEMES
from repro.experiments.trace_factories import azure_factory
from repro.framework.system import RunConfig
from repro.simulator.chaos import ChaosSpec, StochasticCrashes

__all__ = ["run", "FAULT_MODEL", "BASE_MEAN_INTERARRIVAL", "chaos_for"]

FAULT_MODEL = "bert"
#: SLO for the study: generous enough that a retried batch can complete
#: after a failover (see module docstring).
SLO_SECONDS = 10.0
#: Mean seconds between crash onsets at intensity 1.0 (the legacy Fig 13b
#: schedule averages one outage per 120 s; the stochastic spec matches
#: that rate in expectation).
BASE_MEAN_INTERARRIVAL = 120.0
DOWNTIME_SECONDS = 30.0
RECOVERY_MODES = ("retry", "drop")


def chaos_for(intensity: float, seed: int = 0) -> ChaosSpec:
    """The crash spec at a given fault intensity (1.0 = base rate)."""
    if intensity <= 0:
        raise ValueError("fault intensity must be positive")
    return ChaosSpec(
        faults=(
            StochasticCrashes(
                mean_interarrival_seconds=BASE_MEAN_INTERARRIVAL / intensity,
                downtime_seconds=DOWNTIME_SECONDS,
                first_crash_after=DOWNTIME_SECONDS,
            ),
        ),
        seed=seed,
    )


@register_experiment(
    "resilience",
    title="Fault-intensity sweep: retry/breaker vs. drop",
)
def run(
    duration: float = 420.0,
    repetitions: int = 2,
    intensities: Sequence[float] = (1.0, 2.0, 4.0),
    seed0: int = 1,
) -> ExperimentReport:
    """Sweep crash intensity x scheme x recovery policy."""
    rows = []
    for intensity in intensities:
        chaos = chaos_for(intensity)
        for recovery in RECOVERY_MODES:
            config = RunConfig(
                chaos=chaos,
                resilience=ResilienceConfig(recovery=recovery),
            )
            matrix = run_matrix(
                schemes=COST_EFFECTIVE_SCHEMES,
                model_names=[FAULT_MODEL],
                trace_factory=azure_factory(duration),
                repetitions=repetitions,
                slo_seconds=SLO_SECONDS,
                config=config,
                seed0=seed0,
            )
            for scheme in COST_EFFECTIVE_SCHEMES:
                s = matrix.summary(scheme, FAULT_MODEL)
                cells = matrix.cell_runs(scheme, FAULT_MODEL)
                rows.append(
                    [
                        intensity,
                        recovery,
                        scheme,
                        round(s.slo_compliance_percent, 2),
                        round(s.cost_dollars, 4),
                        sum(r.retries_scheduled for r in cells),
                        sum(r.requests_shed + r.requests_dropped
                            for r in cells),
                    ]
                )
    return ExperimentReport(
        experiment_id="resilience",
        title="Stochastic node crashes: retry/breaker vs. drop",
        headers=[
            "intensity", "recovery", "scheme", "slo_%", "cost_$",
            "retries", "lost_req",
        ],
        rows=rows,
        notes=(
            "extension study (no paper counterpart); intensity scales the "
            f"base crash rate of one outage per {BASE_MEAN_INTERARRIVAL:.0f}s "
            "in expectation",
        )[0],
    )
