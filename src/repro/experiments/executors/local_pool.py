"""Process-pool backend: per-cell futures, crash containment, timeouts.

The pre-executor runner pushed the whole matrix through one monolithic
``pool.map``: a single worker crash (OOM, pickling bug, SIGKILL) raised
``BrokenProcessPool`` out of the iterator and threw away every in-flight
cell.  This backend submits **one future per cell** and drains them in
completion order, so faults stay contained:

* **Worker crash** — ``BrokenProcessPool`` marks the whole pool dead;
  every in-flight cell is classified ``crash``, the pool is respawned,
  and the affected cells (only) are resubmitted under the fault policy.
  The submission window is capped at the worker count, so collateral is
  bounded by the pool size, not the matrix size.
* **Straggler / timeout** — a cell past its wall-clock budget has its
  future cancelled if still queued, or *abandoned* (result ignored) if
  running, and is resubmitted.  When every worker is presumed stuck on
  an abandoned straggler the pool is rebuilt rather than waiting them
  out.
* **Retry backoff** — failed cells re-enter the queue after their
  decorrelated-jitter backoff, never blocking cells that are ready.

Workers build their :class:`~repro.hardware.profiles.ProfileService`
once per process via the pool initializer + per-worker memo (unchanged
from the ``pool.map`` era); per-cell future overhead replaces chunking,
which matters only for sub-millisecond tasks — a matrix cell simulates
for seconds.
"""

from __future__ import annotations

import heapq
import logging
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.experiments.executors.base import (
    EXECUTOR_METRICS,
    CellFaultPolicy,
    CellOutcome,
    CellState,
    Executor,
    worker_count,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import CellSpec

__all__ = ["LocalPoolExecutor"]

logger = logging.getLogger(__name__)

#: Exit code injected crashes use; any abnormal worker death (OOM kill,
#: segfault) is handled identically.
_CRASH_EXIT_CODE = 86

#: Upper bound on the wait() poll when no deadline is nearer.
_POLL_SECONDS = 0.25


def _pool_initializer() -> None:
    """Build the default catalog + profile database once per worker."""
    from repro.experiments.runner import _profiles_for

    _profiles_for(None)


def _pool_cell_task(
    spec: "CellSpec", inject_kind: Optional[str], inject_seconds: float
):
    """The per-cell task run inside a worker process.

    Chaos-injected faults are realised here, where a real fault would
    occur: a "crash" kills the worker process outright (the parent sees
    ``BrokenProcessPool``, exactly like an OOM kill), a "straggler"
    sleeps before computing.
    """
    if inject_kind == "crash":
        os._exit(_CRASH_EXIT_CODE)
    elif inject_kind == "exception":
        raise RuntimeError("chaos: injected cell exception")
    elif inject_kind == "straggler":
        time.sleep(inject_seconds)
    from repro.experiments.runner import run_cell

    return run_cell(spec)


class LocalPoolExecutor(Executor):
    """Per-cell futures over a respawnable ``ProcessPoolExecutor``."""

    name = "pool"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        mp_context=None,
    ) -> None:
        self.max_workers = max_workers
        self._mp_context = mp_context
        self.inject = None

    # ------------------------------------------------------------------
    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_initializer,
            mp_context=self._mp_context,
        )

    def submit(
        self,
        cells: Sequence["CellSpec"],
        policy: Optional[CellFaultPolicy] = None,
    ) -> Iterator[CellOutcome]:
        if not cells:
            return
        workers = (
            self.max_workers
            if self.max_workers
            else worker_count(len(cells), os.cpu_count() or 1)
        )
        timeout = policy.cell_timeout_seconds if policy is not None else None

        queue: deque[CellState] = deque(
            CellState(pos=i, spec=spec, out=CellOutcome(i, None, attempts=0))
            for i, spec in enumerate(cells)
        )
        waiting: list[tuple[float, int, CellState]] = []  # backoff heap
        inflight: dict[Future, CellState] = {}
        abandoned: dict[Future, CellState] = {}
        pool = self._new_pool(workers)

        def launch(st: CellState, now: float) -> None:
            fault = (
                self.inject(st.pos, st.out.attempts)
                if self.inject is not None
                else None
            )
            st.out.attempts += 1
            st.deadline = now + timeout if timeout is not None else float("inf")
            fut = pool.submit(
                _pool_cell_task,
                st.spec,
                fault.kind if fault is not None else None,
                fault.delay_seconds if fault is not None else 0.0,
            )
            inflight[fut] = st

        def after_fault(
            st: CellState, kind: str, error: str
        ) -> Optional[CellOutcome]:
            """Queue ``st`` for a retry (returns None) or return its
            terminal outcome."""
            backoff = st.failed(kind, error, policy)
            if backoff is None:
                return st.out
            heapq.heappush(waiting, (time.monotonic() + backoff, st.pos, st))
            return None

        def respawn(reason: str) -> None:
            nonlocal pool
            EXECUTOR_METRICS.counter("executor.pool_respawn").inc()
            logger.warning(
                "respawning worker pool (%s); %d cell(s) in flight",
                reason, len(inflight),
            )
            pool.shutdown(wait=False, cancel_futures=True)
            abandoned.clear()
            pool = self._new_pool(workers)

        try:
            while queue or waiting or inflight:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    queue.append(heapq.heappop(waiting)[2])
                while queue and len(inflight) < workers:
                    launch(queue.popleft(), now)

                if not inflight:
                    # Only backoff waits remain.
                    time.sleep(max(0.0, waiting[0][0] - time.monotonic()))
                    continue

                next_event = min(st.deadline for st in inflight.values())
                if waiting:
                    next_event = min(next_event, waiting[0][0])
                poll = min(
                    _POLL_SECONDS, max(0.0, next_event - time.monotonic())
                )
                done, _ = wait(
                    set(inflight) | set(abandoned),
                    timeout=poll,
                    return_when=FIRST_COMPLETED,
                )

                broken = False
                for fut in done:
                    if fut in abandoned:
                        # A straggler finally finished after its timeout
                        # was charged; the result is discarded either way.
                        abandoned.pop(fut)
                        fut.exception()
                        continue
                    st = inflight.pop(fut)
                    try:
                        result = fut.result()
                    except BrokenProcessPool as exc:
                        broken = True
                        terminal = after_fault(
                            st, "crash", f"worker crashed: {exc!r}"
                        )
                        if terminal is not None:
                            yield terminal
                    except Exception as exc:  # noqa: BLE001 - classified
                        terminal = after_fault(st, "exception", repr(exc))
                        if terminal is not None:
                            yield terminal
                    else:
                        st.out.result = result
                        yield st.out

                if broken:
                    # The pool is dead: every other in-flight cell is
                    # collateral of the crash.  Charge them a crash
                    # attempt (they were genuinely lost) and rebuild.
                    for fut, st in list(inflight.items()):
                        terminal = after_fault(
                            st, "crash", "worker pool broke while in flight"
                        )
                        if terminal is not None:
                            yield terminal
                    inflight.clear()
                    respawn("BrokenProcessPool")
                    continue

                if timeout is not None:
                    now = time.monotonic()
                    for fut, st in list(inflight.items()):
                        if st.deadline > now:
                            continue
                        inflight.pop(fut)
                        if not fut.cancel():
                            # Already running: abandon it; the worker
                            # frees up whenever the straggler returns.
                            abandoned[fut] = st
                        terminal = after_fault(
                            st, "timeout",
                            f"cell exceeded {timeout:.3f}s wall-clock budget",
                        )
                        if terminal is not None:
                            yield terminal
                    if len(abandoned) >= workers:
                        # Every worker is presumed wedged on an abandoned
                        # straggler; re-queue whatever is still nominally
                        # in flight (those futures never started — all
                        # workers were busy) without charging an attempt.
                        for fut, st in list(inflight.items()):
                            fut.cancel()
                            st.out.attempts -= 1
                            queue.appendleft(st)
                        inflight.clear()
                        respawn("all workers stuck past the cell timeout")
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
