"""The seed (pre-optimisation) discrete-event engine, kept as an oracle.

This is the original ``@dataclass(order=True)`` implementation of the
engine, preserved verbatim so that

* the golden-trace determinism tests can assert the optimised
  :class:`repro.simulator.engine.Simulator` reproduces the *exact*
  ``(time, priority, seq)`` dispatch order and run results of the seed, and
* ``benchmarks/test_bench_engine.py`` can measure the optimised engine's
  dispatch throughput against the seed in the same process on the same
  machine (the ratio recorded in ``BENCH_engine.json`` is
  machine-independent, unlike raw events/second).

Nothing in the production tree may import this module; it exists for
tests and benchmarks only.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from repro.simulator.engine import DispatchProfiler, SimulationError

__all__ = ["ReferenceEvent", "ReferenceSimulator"]


@dataclass(order=True)
class ReferenceEvent:
    """The seed heap entry: orderable by ``(time, priority, seq)``."""

    time: float
    priority: int
    seq: int
    fn: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class ReferenceSimulator:
    """Bit-for-bit the seed ``Simulator`` (drop-in for golden comparisons)."""

    def __init__(
        self,
        start_time: float = 0.0,
        profiler: Optional[DispatchProfiler] = None,
    ) -> None:
        self._now = float(start_time)
        self._heap: list[ReferenceEvent] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self.n_dispatched = 0
        self._profiler = profiler

    def set_profiler(self, profiler: Optional[DispatchProfiler]) -> None:
        self._profiler = profiler

    @property
    def now(self) -> float:
        return self._now

    def schedule(
        self, delay: float, fn: Callable[[], None], priority: int = 0
    ) -> ReferenceEvent:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        if math.isnan(delay) or math.isinf(delay):
            raise SimulationError(f"non-finite delay: {delay!r}")
        return self.schedule_at(self._now + delay, fn, priority)

    def schedule_at(
        self, time: float, fn: Callable[[], None], priority: int = 0
    ) -> ReferenceEvent:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now})"
            )
        if math.isnan(time) or math.isinf(time):
            raise SimulationError(f"non-finite event time: {time!r}")
        ev = ReferenceEvent(
            time=float(time), priority=priority, seq=next(self._seq), fn=fn
        )
        heapq.heappush(self._heap, ev)
        return ev

    def cancel(self, ev: ReferenceEvent) -> None:  # the engine's cancel API
        ev.cancel()

    def step(self) -> bool:
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self._now = ev.time
            self.n_dispatched += 1
            prof = self._profiler
            if prof is None:
                ev.fn()
            else:
                t0 = perf_counter()
                ev.fn()
                prof.record(ev.fn, perf_counter() - t0)
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        self._stopped = False
        try:
            while self._heap and not self._stopped:
                nxt = self._heap[0]
                if nxt.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and nxt.time > until:
                    break
                self.step()
            if until is not None and self._now < until:
                self._now = float(until)
        finally:
            self._running = False

    def stop(self) -> None:
        self._stopped = True

    def pending(self) -> int:
        return sum(1 for ev in self._heap if not ev.cancelled)
