"""Seeded fault injection for the executor machinery itself.

``ChaosExecutor`` wraps any inner executor and deterministically injects
worker crashes, timeouts (stragglers slower than the cell budget),
stragglers (slow but inside the budget), and in-cell exceptions.  The
simulator-side chaos engine (:mod:`repro.simulator.chaos`) breaks the
*simulated* fleet; this wrapper breaks the *experiment harness* — the
worker processes and futures that produce every figure — so the retry
and respawn machinery can be tested end to end.

Determinism contract (the same per-(seed, index) stream discipline as
``ChaosSpec``): whether cell ``i`` is faulted, and with which kind, is a
pure function of ``(seed, i)`` — independent of scheduling order, worker
count, and the fates of sibling cells.  By default each cell suffers at
most ``faults_per_cell`` injected faults (on its first attempts), so a
policy with enough retries always converges to the same results as a
fault-free run — bit-identical, since cells are pure functions of their
spec.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.experiments.executors.base import (
    CellFaultPolicy,
    CellOutcome,
    Executor,
    InjectedFault,
)
from repro.experiments.executors.serial import SerialExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import CellSpec

__all__ = ["ChaosExecutor"]

#: Stragglers injected for "timeout" faults sleep this multiple of the
#: policy's cell budget, guaranteeing the deadline is crossed.
_TIMEOUT_FACTOR = 2.0


class ChaosExecutor(Executor):
    """Deterministic fault-injecting wrapper around an inner executor.

    Parameters
    ----------
    inner:
        The executor that actually runs cells (default: a fresh
        :class:`SerialExecutor`).
    seed:
        Seeds the per-cell fault draws.
    crash_rate / timeout_rate / straggler_rate / exception_rate:
        Probability that a cell's first attempt suffers each fault kind
        (drawn once per cell; kinds are mutually exclusive, so the rates
        must sum to at most 1).
    crash_cells / timeout_cells / exception_cells:
        Explicit cell positions to fault (override the random draw).
    straggler_seconds:
        Sleep for "straggler" faults (and for "timeout" faults when the
        policy has no cell budget to overshoot).
    faults_per_cell:
        Inject on the first this-many attempts of a faulted cell
        (default 1: the first retry runs clean, so any policy with
        ``max_attempts > faults_per_cell`` converges).
    """

    def __init__(
        self,
        inner: Optional[Executor] = None,
        *,
        seed: int = 0,
        crash_rate: float = 0.2,
        timeout_rate: float = 0.0,
        straggler_rate: float = 0.0,
        exception_rate: float = 0.1,
        crash_cells: Sequence[int] = (),
        timeout_cells: Sequence[int] = (),
        exception_cells: Sequence[int] = (),
        straggler_seconds: float = 0.25,
        faults_per_cell: int = 1,
    ) -> None:
        total = crash_rate + timeout_rate + straggler_rate + exception_rate
        if not 0.0 <= total <= 1.0:
            raise ValueError("fault rates must be in [0, 1] and sum to <= 1")
        if faults_per_cell < 1:
            raise ValueError("faults_per_cell must be at least 1")
        self.inner = inner if inner is not None else SerialExecutor()
        self.seed = seed
        self.crash_rate = crash_rate
        self.timeout_rate = timeout_rate
        self.straggler_rate = straggler_rate
        self.exception_rate = exception_rate
        self.crash_cells = frozenset(crash_cells)
        self.timeout_cells = frozenset(timeout_cells)
        self.exception_cells = frozenset(exception_cells)
        self.straggler_seconds = straggler_seconds
        self.faults_per_cell = faults_per_cell
        #: Kind -> count of faults planned for the last ``submit``.
        self.injected: dict[str, int] = {}

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"chaos({self.inner.name})"

    # ------------------------------------------------------------------
    def _planned_kind(self, pos: int) -> Optional[str]:
        """The fault kind cell ``pos`` suffers, or ``None`` — a pure
        function of ``(seed, pos)``."""
        if pos in self.crash_cells:
            return "crash"
        if pos in self.timeout_cells:
            return "timeout"
        if pos in self.exception_cells:
            return "exception"
        u = random.Random(f"chaos:{self.seed}:{pos}").random()
        edge = self.crash_rate
        if u < edge:
            return "crash"
        edge += self.timeout_rate
        if u < edge:
            return "timeout"
        edge += self.straggler_rate
        if u < edge:
            return "straggler"
        edge += self.exception_rate
        if u < edge:
            return "exception"
        return None

    def _fault_for(
        self, kind: str, policy: Optional[CellFaultPolicy]
    ) -> InjectedFault:
        if kind == "timeout":
            budget = (
                policy.cell_timeout_seconds
                if policy is not None and policy.cell_timeout_seconds
                else None
            )
            delay = (
                budget * _TIMEOUT_FACTOR
                if budget is not None
                else self.straggler_seconds
            )
            return InjectedFault("straggler", delay_seconds=delay)
        if kind == "straggler":
            return InjectedFault(
                "straggler", delay_seconds=self.straggler_seconds
            )
        return InjectedFault(kind)

    def submit(
        self,
        cells: Sequence["CellSpec"],
        policy: Optional[CellFaultPolicy] = None,
    ) -> Iterator[CellOutcome]:
        plan: dict[int, InjectedFault] = {}
        self.injected = {}
        for pos in range(len(cells)):
            kind = self._planned_kind(pos)
            if kind is None:
                continue
            plan[pos] = self._fault_for(kind, policy)
            self.injected[kind] = self.injected.get(kind, 0) + 1

        def inject(pos: int, attempt: int) -> Optional[InjectedFault]:
            if attempt >= self.faults_per_cell:
                return None
            return plan.get(pos)

        previous = self.inner.inject
        self.inner.inject = inject
        try:
            yield from self.inner.submit(cells, policy)
        finally:
            self.inner.inject = previous
