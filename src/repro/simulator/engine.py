"""Discrete-event simulation engine.

The whole reproduction runs on a single-threaded discrete-event simulator.
Every component (GPU devices, container pools, autoscalers, the hardware
selection daemon, trace drivers) schedules callbacks on one shared
:class:`Simulator` instance.  Determinism is guaranteed by ordering events by
``(time, priority, sequence)`` where ``sequence`` is a monotonically
increasing tie-breaker, so two runs with the same seed produce bit-identical
schedules.

Design notes
------------
* Events are plain callbacks.  We deliberately avoid a class hierarchy of
  event objects: profiling showed callback dispatch is ~3x faster than
  virtual-dispatch event objects for the event volumes we simulate (~1e5-1e6
  events per trace), and the hpc-parallel guides' advice is to keep the hot
  loop free of unnecessary allocation.
* Heap entries *are* the schedule handles: each is a plain 4-slot
  ``[time, priority, seq, fn]`` list, so ``heapq`` orders entries with the
  list type's C-level comparison and building one costs a list display,
  not a constructor call.  The unique ``seq`` in slot 2 guarantees the
  callback in slot 3 is never reached during comparison.  One allocation
  per event, C-speed ordering.
* Cancellation is handled with a tombstone rather than heap surgery:
  :meth:`Simulator.cancel` nulls the callback slot (O(1)); tombstoned
  entries are skipped when popped.
* The clock :attr:`Simulator.now` is a plain attribute: devices and the
  framework read it several times per request.
* :meth:`Simulator.run` samples the profiler once at entry and selects
  one of two loop bodies — unprofiled, or bracketing each dispatch with
  the profiler's ``push_site`` / ``pop`` — so the common (unprofiled) hot
  loop pays no per-event profiler check at all.  See
  ``docs/PERFORMANCE.md`` for measurements; the seed dataclass engine is
  preserved in :mod:`repro.simulator._reference` as the golden-trace and
  benchmark baseline.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Optional, Protocol

__all__ = [
    "RepeatingEvent",
    "Simulator",
    "SimulationError",
    "DispatchProfiler",
]

#: Module-level aliases save an attribute lookup per schedule/dispatch.
_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = math.inf


class DispatchProfiler(Protocol):
    """What the engine needs from a profiler attached with
    :meth:`Simulator.set_profiler`.  The engine only duck-types this so
    the hot loop stays import-free of any profiler implementation.

    Each dispatch is bracketed by ``push_site(fn)`` before the callback
    runs and ``pop()`` after it, so phases the profiler records inside
    the callback nest under the site frame.  The profiler does its own
    timing."""

    def push_site(self, fn: Callable[[], None]) -> None:
        ...  # pragma: no cover - protocol stub

    def pop(self) -> None:
        ...  # pragma: no cover - protocol stub


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine.

    Examples include scheduling an event in the past or running a simulator
    that has already been stopped.
    """


class RepeatingEvent:
    """Handle for a :meth:`Simulator.every` loop.

    Wraps the *current* underlying heap entry; :meth:`cancel` both
    tombstones it and stops the loop from rescheduling, so a single call
    ends the series no matter how many ticks have already fired.
    """

    __slots__ = ("_event", "_cancelled")

    def __init__(self) -> None:
        self._event: Optional[list] = None
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Stop the series; the pending tick (if any) never fires."""
        self._cancelled = True
        if self._event is not None:
            self._event[3] = None  # as Simulator.cancel


class Simulator:
    """A deterministic discrete-event simulator with a float-seconds clock.

    Parameters
    ----------
    start_time:
        Initial clock value in seconds (default 0.0).
    profiler:
        Optional :class:`DispatchProfiler` (keyword-only).  When attached,
        every dispatched callback is bracketed by its ``push_site`` /
        ``pop``; when absent the hot loop pays no
        per-event check — :meth:`run` selects the unprofiled loop body
        once at entry.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    def __init__(
        self,
        start_time: float = 0.0,
        *,
        profiler: Optional[DispatchProfiler] = None,
    ) -> None:
        #: Current simulation time in seconds; only the run loop
        #: advances it.
        self.now = float(start_time)
        self._heap: list[list] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self.n_dispatched = 0
        self._profiler = profiler

    def set_profiler(self, profiler: Optional[DispatchProfiler]) -> None:
        """Attach (or detach, with ``None``) a dispatch profiler.

        Sampled at :meth:`run` entry (and per :meth:`step`), so attaching
        from *inside* a running callback takes effect on the next run.
        """
        self._profiler = profiler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, fn: Callable[[], None], priority: int = 0
    ) -> list:
        """Schedule ``fn`` to fire ``delay`` seconds from now.

        Parameters
        ----------
        delay:
            Non-negative offset from the current clock.
        fn:
            Zero-argument callback.
        priority:
            Lower priorities fire first among simultaneous events
            (devices use 0 for state updates, policies 10 so decisions
            observe post-update state).

        Returns
        -------
        list
            The heap entry ``[time, priority, seq, fn]``: a handle that
            :meth:`cancel` tombstones.  Callers must not mutate it.
        """
        # One chained comparison rejects negative, inf, and NaN delays
        # (NaN fails every comparison) without three math.* calls.
        if not 0.0 <= delay < _INF:
            if delay < 0:
                raise SimulationError(f"cannot schedule {delay}s in the past")
            raise SimulationError(f"non-finite delay: {delay!r}")
        if fn is None:
            raise SimulationError("event callback must be callable, not None")
        entry = [self.now + delay, priority, next(self._seq), fn]
        _heappush(self._heap, entry)
        return entry

    def schedule_at(
        self, time: float, fn: Callable[[], None], priority: int = 0
    ) -> list:
        """Schedule ``fn`` at absolute simulation time ``time``."""
        if not self.now <= time < _INF:
            if time < self.now:
                raise SimulationError(
                    f"cannot schedule at t={time} (now={self.now})"
                )
            raise SimulationError(f"non-finite event time: {time!r}")
        if fn is None:
            raise SimulationError("event callback must be callable, not None")
        entry = [float(time), priority, next(self._seq), fn]
        _heappush(self._heap, entry)
        return entry

    def cancel(self, entry: list) -> None:
        """Tombstone a handle from :meth:`schedule` or :meth:`schedule_at`:
        it will never fire.  Cancelling twice, or after it fired, is a
        no-op."""
        entry[3] = None

    def every(
        self,
        interval: float,
        fn: Callable[[], None],
        *,
        until: Optional[float] = None,
        priority: int = 0,
    ) -> RepeatingEvent:
        """Fire ``fn`` every ``interval`` seconds, first at ``now + interval``.

        The loop reschedules itself after each tick and stops on its own
        once the *next* fire time would exceed ``until`` (inclusive), so a
        horizon shorter than one interval schedules nothing at all.  The
        returned :class:`RepeatingEvent` cancels the whole series.
        """
        if not 0.0 < interval < _INF:
            raise SimulationError(f"repeat interval must be positive: {interval!r}")
        if fn is None:
            raise SimulationError("event callback must be callable, not None")
        handle = RepeatingEvent()

        def tick() -> None:
            fn()
            if handle._cancelled:
                return
            if until is None or self.now + interval <= until:
                handle._event = self.schedule(interval, tick, priority)

        if until is None or self.now + interval <= until:
            handle._event = self.schedule(interval, tick, priority)
        else:
            handle._cancelled = True
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.

        Returns
        -------
        bool
            ``True`` if an event fired; ``False`` if the heap is empty.
        """
        heap = self._heap
        while heap:
            entry = _heappop(heap)
            fn = entry[3]
            if fn is None:  # tombstoned by cancel
                continue
            self.now = entry[0]
            self.n_dispatched += 1
            prof = self._profiler
            if prof is None:
                fn()
            else:
                prof.push_site(fn)
                fn()
                prof.pop()
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event heap drains or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so time-integrated metrics
        (cost, power) cover the full horizon.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        self._stopped = False
        # Hot loop: locals for the heap and heappop, the profiler branch
        # hoisted out of the loop, and `until` folded into an always-valid
        # float limit (event times are validated finite at schedule time,
        # so +inf means "never stop early").
        heap = self._heap
        pop = _heappop
        prof = self._profiler
        limit = math.inf if until is None else until
        n = self.n_dispatched
        try:
            if prof is None:
                while heap and not self._stopped:
                    entry = heap[0]
                    fn = entry[3]
                    if fn is None:  # tombstone: drop and keep going
                        pop(heap)
                        continue
                    if entry[0] > limit:
                        break
                    pop(heap)
                    self.now = entry[0]
                    n += 1
                    fn()
            else:
                # The site frame is entered before the callback so phases
                # recorded inside it nest under it; the profiler does its
                # own timing on push/pop.
                push_site = prof.push_site
                prof_pop = prof.pop
                while heap and not self._stopped:
                    entry = heap[0]
                    fn = entry[3]
                    if fn is None:
                        pop(heap)
                        continue
                    if entry[0] > limit:
                        break
                    pop(heap)
                    self.now = entry[0]
                    n += 1
                    push_site(fn)
                    fn()
                    prof_pop()
            if until is not None and self.now < until:
                self.now = float(until)
        finally:
            # n_dispatched is maintained in a local and written back here
            # (including on callback exceptions); nothing in the tree reads
            # it mid-run, and the saving is real at ~1e6 events per trace.
            self.n_dispatched = n
            self._running = False

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for ev in self._heap if ev[3] is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending()}, "
            f"dispatched={self.n_dispatched})"
        )
