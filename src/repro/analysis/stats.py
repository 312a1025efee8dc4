"""Statistics helpers shared by the experiment and report layers.

Implements the paper's measurement conventions: SLO-compliance percentages,
tail percentiles, the outlier rule used for averaging repeated runs
("outliers of more than 2.5x the standard deviation from the mean ignored",
Section VI), CDF construction (Fig 6), and goodput (Fig 7a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "drop_outliers",
    "mean_without_outliers",
    "percentile",
    "compliance_percent",
    "cdf_points",
    "normalize",
    "summarize_runs",
    "RunSummary",
]


#: The paper's outlier cut, in standard deviations from the mean.
OUTLIER_N_SIGMA = 2.5


def drop_outliers(values: Sequence[float]) -> np.ndarray:
    """Remove values more than :data:`OUTLIER_N_SIGMA` standard
    deviations from the mean (the paper's Section VI averaging rule).

    With fewer than 3 values, or zero variance, nothing is dropped.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 3:
        return arr
    std = arr.std()
    if std == 0:
        return arr
    mask = np.abs(arr - arr.mean()) <= OUTLIER_N_SIGMA * std
    return arr[mask]


def mean_without_outliers(values: Sequence[float]) -> float:
    """Mean after :func:`drop_outliers`; NaN for empty input."""
    arr = drop_outliers(values)
    if arr.size == 0:
        return float("nan")
    return float(arr.mean())


def percentile(latencies: Sequence[float], q: float) -> float:
    """Latency percentile (seconds); 0 for empty input."""
    arr = np.asarray(latencies, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, q))


def compliance_percent(latencies: Sequence[float], slo_seconds: float,
                       unserved: int = 0) -> float:
    """SLO compliance in percent, counting unserved requests as misses."""
    arr = np.asarray(latencies, dtype=np.float64)
    total = arr.size + max(0, unserved)
    if total == 0:
        return 100.0
    met = int(np.count_nonzero(arr <= slo_seconds))
    return 100.0 * met / total


def cdf_points(
    latencies: Sequence[float], n_points: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """(latency, cumulative fraction) pairs for a CDF plot (Fig 6)."""
    arr = np.sort(np.asarray(latencies, dtype=np.float64))
    if arr.size == 0:
        return np.empty(0), np.empty(0)
    idx = np.linspace(0, arr.size - 1, min(n_points, arr.size)).astype(int)
    return arr[idx], (idx + 1) / arr.size


def normalize(values: Sequence[float], reference: str = "max") -> np.ndarray:
    """Normalize a series (the paper plots normalized cost/power).

    ``reference``: ``"max"`` (divide by the max), ``"min"`` (by the min) or
    ``"first"`` (by the first element).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return arr
    if reference == "max":
        ref = arr.max()
    elif reference == "min":
        ref = arr.min()
    elif reference == "first":
        ref = arr[0]
    else:
        raise ValueError(f"unknown reference {reference!r}")
    if ref == 0:
        return np.zeros_like(arr)
    return arr / ref


@dataclass(frozen=True)
class RunSummary:
    """Aggregated metrics across repetitions of one (scheme, model) cell."""

    scheme: str
    model: str
    slo_compliance_percent: float
    p99_ms: float
    p50_ms: float
    cost_dollars: float
    energy_joules: float
    avg_watts: float
    n_runs: int

    def as_dict(self) -> dict[str, float | str | int]:
        return {
            "scheme": self.scheme,
            "model": self.model,
            "slo_compliance_percent": self.slo_compliance_percent,
            "p99_ms": self.p99_ms,
            "p50_ms": self.p50_ms,
            "cost_dollars": self.cost_dollars,
            "energy_joules": self.energy_joules,
            "avg_watts": self.avg_watts,
            "n_runs": self.n_runs,
        }


def summarize_runs(results: Iterable) -> RunSummary:
    """Collapse repeated :class:`~repro.framework.system.RunResult`s into a
    :class:`RunSummary` using the paper's outlier-robust averaging."""
    results = list(results)
    if not results:
        raise ValueError("no runs to summarize")
    scheme = results[0].scheme
    model = results[0].model
    if any(r.scheme != scheme or r.model != model for r in results):
        raise ValueError("summarize_runs expects one (scheme, model) cell")
    return RunSummary(
        scheme=scheme,
        model=model,
        slo_compliance_percent=mean_without_outliers(
            [100.0 * r.slo_compliance for r in results]
        ),
        p99_ms=mean_without_outliers([r.p99_seconds * 1e3 for r in results]),
        p50_ms=mean_without_outliers([r.p50_seconds * 1e3 for r in results]),
        cost_dollars=mean_without_outliers([r.total_cost for r in results]),
        energy_joules=mean_without_outliers([r.energy_joules for r in results]),
        avg_watts=mean_without_outliers([r.avg_watts for r in results]),
        n_runs=len(results),
    )
