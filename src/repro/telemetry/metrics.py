"""Metrics instruments: counters.

Counters live in a :class:`MetricsRegistry` and are pushed to by the
instrumented code (the result-cache and executor counters); the
Prometheus exposition (:mod:`~repro.telemetry.prometheus`) reads them.
A traced run's latency histogram is computed from its batch log at
export, and periodic state readings — queue depths, pools, occupancy —
are the time-series sampler's job (:mod:`~repro.telemetry.timeseries`),
so neither is the registry's.
"""

from __future__ import annotations

__all__ = ["Counter", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count (cold starts, dispatches, ...)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class MetricsRegistry:
    """Creates and holds named counters (idempotent by name)."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter(name)
            return c
