"""Metrics instruments: counters and histograms.

Instruments live in a :class:`MetricsRegistry` and are pushed to by the
instrumented code (result-cache and executor counters, the traced run's
``request.latency_seconds`` histogram).  A histogram keeps exactly what
the Prometheus exposition (:mod:`~repro.telemetry.prometheus`) reads:
bucket counts, observation count, and sum.  Periodic state readings —
queue depths, pools, occupancy — are the time-series sampler's job
(:mod:`~repro.telemetry.timeseries`), not the registry's.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

import numpy as np

__all__ = ["Counter", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count (cold starts, dispatches, ...)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Histogram:
    """Fixed-bucket histogram (latencies, batch sizes).

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything above the last bound.
    """

    DEFAULT_BOUNDS: tuple[float, ...] = (
        0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
        0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    )

    def __init__(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        bs = tuple(bounds) if bounds is not None else self.DEFAULT_BOUNDS
        if list(bs) != sorted(bs) or len(set(bs)) != len(bs):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bs
        self.counts = [0] * (len(bs) + 1)
        self.n = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.n += 1
        self.sum += value

    def observe_many(self, values: np.ndarray) -> None:
        """:meth:`observe` each value in order: the same counts, and the
        same sum (accumulated sequentially, not pairwise)."""
        if not values.size:
            return
        buckets = np.searchsorted(self.bounds, values, side="left")
        for i, n in enumerate(np.bincount(buckets).tolist()):
            self.counts[i] += n
        self.n += int(values.size)
        self.sum = float(np.cumsum(np.concatenate(([self.sum], values)))[-1])


class MetricsRegistry:
    """Creates and holds named instruments (idempotent by name)."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter(name)
            return c

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram(name, bounds)
            return h
