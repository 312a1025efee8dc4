"""In-process, one-at-a-time cell execution with post-hoc timeouts.

The serial executor is the reference implementation the others must
match bit-for-bit: no pickling, no worker processes, deterministic
completion order.  Faults injected by a chaos wrapper are realised
in-process — a "crash" becomes :class:`InjectedCrash` (classified
``crash`` like a dead worker would be), a straggler really sleeps — so
the retry machinery exercises the same code paths as the pool backend.

A cell running in its own process cannot be preempted, so the per-cell
wall-clock timeout is enforced *post-hoc*: a cell whose attempt took
longer than the budget is classified ``timeout`` and its (already
computed) result discarded, exactly as a pool backend would have
abandoned the straggling future.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.experiments.executors.base import (
    CellFaultPolicy,
    CellOutcome,
    CellState,
    Executor,
    InjectedFault,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import CellSpec

__all__ = ["InjectedCrash", "SerialExecutor"]


class InjectedCrash(Exception):
    """In-process stand-in for a dead worker (chaos "crash" faults)."""


def realize_fault_inline(fault: InjectedFault) -> None:
    """Simulate ``fault`` inside the current process (serial backend)."""
    if fault.kind == "crash":
        raise InjectedCrash("chaos: injected worker crash")
    if fault.kind == "exception":
        raise RuntimeError("chaos: injected cell exception")
    if fault.kind == "straggler":
        time.sleep(fault.delay_seconds)


class SerialExecutor(Executor):
    """Run every cell in the calling process, applying the fault policy."""

    name = "serial"

    def __init__(self) -> None:
        self.inject = None

    def submit(
        self,
        cells: Sequence["CellSpec"],
        policy: Optional[CellFaultPolicy] = None,
    ) -> Iterator[CellOutcome]:
        for pos, spec in enumerate(cells):
            yield self._outcome(pos, spec, policy)

    def _outcome(
        self, pos: int, spec: "CellSpec", policy: Optional[CellFaultPolicy]
    ) -> CellOutcome:
        from repro.experiments.runner import run_cell

        timeout = (
            policy.cell_timeout_seconds if policy is not None else None
        )
        st = CellState(pos, spec, CellOutcome(pos, None, attempts=0))
        out = st.out
        while True:
            fault = (
                self.inject(pos, out.attempts)
                if self.inject is not None
                else None
            )
            out.attempts += 1
            start = time.monotonic()
            try:
                if fault is not None:
                    realize_fault_inline(fault)
                result = run_cell(spec)
            except InjectedCrash as exc:
                kind, error = "crash", str(exc)
            except Exception as exc:  # noqa: BLE001 - classified + retried
                kind, error = "exception", repr(exc)
            else:
                elapsed = time.monotonic() - start
                if timeout is None or elapsed <= timeout:
                    out.result = result
                    return out
                kind = "timeout"
                error = (
                    f"cell exceeded {timeout:.3f}s budget ({elapsed:.3f}s)"
                )
            backoff = st.failed(kind, error, policy)
            if backoff is None:
                return out
            if backoff > 0:
                time.sleep(backoff)
