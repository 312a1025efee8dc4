"""MPS co-location interference law.

The ground-truth physics of spatial GPU sharing in this reproduction.
Prophet-style models (which the paper modifies into Equation (1)) describe a
co-located job's execution time as its solo time inflated by the aggregate
*Fractional Bandwidth Requirement* (FBR) of everything sharing the device:
below bandwidth saturation co-location is essentially free, past saturation
each job slows proportionally to total demand.

We make the ground truth *super-linear* past saturation
(``slowdown = (total_fbr / knee) ** alpha`` with ``alpha > 1``): real GPUs
degrade faster than linearly once caches and DRAM rows start thrashing, and
it is precisely this curvature that makes over-co-location (the
INFless/Llama failure mode) collapse while a bounded hybrid split (Paldia)
stays near the throughput sweet spot.  The scheduler's Equation-(1) model
uses the *profiled* curvature but not the per-job noise, so its predictions
carry realistic error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["InterferenceModel", "DEFAULT_INTERFERENCE"]


@dataclass(frozen=True)
class InterferenceModel:
    """Slowdown of MPS co-located jobs as a function of aggregate FBR.

    Attributes
    ----------
    alpha:
        Super-linearity exponent past saturation.  ``alpha = 1`` recovers
        the paper's linear Equation-(1) regime; the default 1.3 reflects the
        faster-than-linear degradation real co-location exhibits.
    knee:
        Aggregate FBR at which the device's memory bandwidth saturates
        (1.0 = the full device bandwidth).
    sub_knee_slope:
        Optional mild per-unit-FBR slowdown *below* the knee (cache
        pollution).  Defaults to 0 so that a job running alone — whose FBR
        is below 1 by construction, since its profiled solo time already
        reflects its own bandwidth use — executes in exactly its solo time.
        Kept as a knob for the interference-model ablation.
    """

    alpha: float = 1.25
    knee: float = 1.0
    sub_knee_slope: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha < 1.0:
            raise ValueError("alpha < 1 would make co-location speed jobs up")
        if self.knee <= 0:
            raise ValueError("knee must be positive")
        if self.sub_knee_slope < 0:
            raise ValueError("sub_knee_slope must be non-negative")

    def slowdown(self, total_fbr: float) -> float:
        """Multiplicative execution-time inflation at aggregate demand
        ``total_fbr``.

        Returns 1.0 (plus the mild sub-knee term) when the device is not
        bandwidth-saturated, and ``(total_fbr / knee) ** alpha`` beyond.
        Monotone non-decreasing and continuous at the knee (up to the
        sub-knee term, which vanishes as demand -> 0).
        """
        s = float(total_fbr)
        if s < 0:
            raise ValueError("total FBR cannot be negative")
        ratio = s / self.knee
        if ratio <= 1.0:
            return 1.0 + self.sub_knee_slope * s
        return float(ratio**self.alpha) + self.sub_knee_slope * self.knee

    def slowdown_array(self, total_fbr: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`slowdown` for the Equation-(1) y-sweep."""
        s = np.asarray(total_fbr, dtype=np.float64)
        if np.any(s < 0):
            raise ValueError("total FBR cannot be negative")
        return self._slowdown_raw(s)

    def _slowdown_raw(self, s: np.ndarray) -> np.ndarray:
        """:meth:`slowdown_array` minus conversion and validation, for the
        Equation-(1) solvers whose demands are non-negative float64 by
        construction.  Same expression, bit-identical output."""
        ratio = s / self.knee
        out = np.where(
            ratio <= 1.0,
            1.0 + self.sub_knee_slope * s,
            ratio ** self.alpha + self.sub_knee_slope * self.knee,
        )
        return out


#: The physics every experiment uses unless it overrides it.
DEFAULT_INTERFERENCE = InterferenceModel()
