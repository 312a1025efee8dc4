"""Request-rate prediction (the lightweight, pluggable model of §IV-A/C).

Paldia predicts near-future request rates with a lightweight statistical
model — EWMA, following Atoll/Cypress — fed with per-interval arrival
counts.  The predictor is pluggable: the clairvoyant Oracle baseline swaps
in :class:`OraclePredictor`, which reads the trace's true rate curve.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.workloads.traces import Trace

__all__ = ["RatePredictor", "EWMAPredictor", "OraclePredictor", "RateTracker"]


class RatePredictor(ABC):
    """Interface: observe per-interval rates, predict the near future."""

    @abstractmethod
    def observe(self, rate_rps: float, now: float) -> None:
        """Feed one observed rate sample (requests/second over the last
        monitoring interval ending at ``now``)."""

    @abstractmethod
    def predict(self, now: float, lookahead: float) -> float:
        """Predicted request rate (rps) over ``[now, now + lookahead]``."""


class EWMAPredictor(RatePredictor):
    """Trend-aware EWMA (Holt's linear smoothing) with surge jumps.

    A plain EWMA lags ramps, which is precisely when prediction matters:
    hardware must be acquired ~4 s before it is needed (Section IV-A).  We
    therefore keep two exponentially smoothed states — level and trend —
    and extrapolate ``level + trend * lookahead``.  A sample exceeding the
    level by ``surge_threshold`` is trusted immediately (surge onset),
    while ordinary jitter follows the smooth level (otherwise noise churns
    the hardware selection).
    """

    def __init__(
        self,
        alpha: float = 0.35,
        beta: float = 0.3,
        surge_threshold: float = 1.5,
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if not 0 <= beta <= 1:
            raise ValueError("beta must be in [0, 1]")
        if surge_threshold < 1.0:
            raise ValueError("surge threshold must be >= 1")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.surge_threshold = float(surge_threshold)
        self._level: Optional[float] = None
        self._trend: float = 0.0
        self._last: float = 0.0
        self._last_surged = False

    def observe(self, rate_rps: float, now: float) -> None:
        rate = max(0.0, float(rate_rps))
        self._last = rate
        if self._level is None:
            self._level = rate
            self._trend = 0.0
            return
        prev = self._level
        surged = rate > self._level * self.surge_threshold
        if surged and self._last_surged:
            # Two consecutive high samples: a real surge onset, not sample
            # noise — trust the jump so hardware can be acquired early.
            self._level = rate
        elif surged:
            self._level = max(
                0.0,
                self.alpha * rate + (1 - self.alpha) * (self._level + self._trend),
            )
        else:
            self._level = max(
                0.0,
                self.alpha * rate + (1 - self.alpha) * (self._level + self._trend),
            )
        self._trend = self.beta * (self._level - prev) + (1 - self.beta) * self._trend
        self._last_surged = surged

    def predict(self, now: float, lookahead: float) -> float:
        if self._level is None:
            return 0.0
        # Only extrapolate upward trends: a decaying rate is not a reason
        # to downgrade below the current level (conservatism is cheap).
        trend = max(0.0, self._trend)
        return max(0.0, float(self._level + trend * max(0.0, lookahead)))


class OraclePredictor(RatePredictor):
    """Clairvoyant predictor: reads the true offered-rate curve.

    Used by the Oracle baseline (Fig 11), which knows the trace beforehand.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace

    def observe(self, rate_rps: float, now: float) -> None:  # noqa: D102
        pass  # clairvoyance needs no observations

    def predict(self, now: float, lookahead: float) -> float:
        end = min(self.trace.duration, now + max(lookahead, 1e-9))
        if now >= self.trace.duration:
            return 0.0
        # The lookahead-window mean with a small margin: the max bin would
        # chase sampling noise onto needlessly expensive hardware, while
        # the bare mean lags ramps.
        t0, t1 = now, end
        i0 = int(t0 / self.trace.bin_seconds)
        i1 = max(i0 + 1, int(-(-t1 // self.trace.bin_seconds)))
        rates = self.trace.bin_rates[i0 : min(i1, self.trace.bin_rates.size)]
        return float(rates.mean()) * 1.1 if rates.size else 0.0


class RateTracker:
    """Turns raw arrival counts into the per-interval rate samples the
    predictors consume, and exposes the current measured rate.

    Each monitor tick, the framework passes the requests delivered since
    the previous tick to :meth:`count`, then :meth:`sample` closes the
    interval.
    """

    def __init__(self, window_seconds: float = 1.0) -> None:
        if window_seconds <= 0:
            raise ValueError("window must be positive")
        self.window_seconds = float(window_seconds)
        self._count = 0
        #: Most recent closed-interval rate (0 before the first sample).
        self.current_rate = 0.0

    def count(self, n: int) -> None:
        """Record ``n`` arrivals in the current interval."""
        self._count += int(n)

    def sample(self, now: float) -> float:
        """Close the interval, returning its rate (rps) and resetting."""
        rate = self.current_rate = self._count / self.window_seconds
        self._count = 0
        return rate
