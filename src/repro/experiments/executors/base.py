"""Executor interface: fault-classified, retryable experiment cells.

An :class:`Executor` turns a sequence of
:class:`~repro.experiments.runner.CellSpec` cells into a stream of
:class:`CellOutcome` records, applying an optional
:class:`CellFaultPolicy` (per-cell retry with decorrelated-jitter
backoff, per-cell wall-clock timeout, crash/timeout/exception
classification).  ``run_matrix`` is a thin planner on top: it replays
the result cache, picks an executor, and folds the outcome stream back
into a :class:`~repro.experiments.runner.MatrixResult`.

Implementations
---------------
:class:`~repro.experiments.executors.serial.SerialExecutor`
    Runs cells in-process, one at a time.  Timeouts are enforced
    post-hoc (a cell cannot be preempted mid-run in its own process).
:class:`~repro.experiments.executors.local_pool.LocalPoolExecutor`
    Per-cell futures over a ``ProcessPoolExecutor``; a worker crash
    (``BrokenProcessPool``) loses only the in-flight cells and respawns
    the pool, stragglers past the cell timeout are abandoned and
    resubmitted.
:class:`~repro.experiments.executors.chaos.ChaosExecutor`
    A seeded wrapper that deterministically injects worker crashes,
    timeouts, and stragglers into an inner executor — for testing the
    fault machinery itself.

Disabled path
-------------
With no fault policy and no chaos wrapper, an executor constructs no
retry machinery: no :class:`CellFaultPolicy`, no backoff RNG, and zero
calls into the chaos module (gated deterministically by
``benchmarks/test_bench_executor.py``, the same way the self-profiler
and cost-meter disabled paths are gated).
"""

from __future__ import annotations

import abc
import logging
import os
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import CellSpec
    from repro.framework.system import RunResult

__all__ = [
    "EXECUTOR_METRICS",
    "CellExecutionError",
    "CellFailure",
    "CellFaultPolicy",
    "CellOutcome",
    "CellState",
    "Executor",
    "ExecutionSettings",
    "InjectedFault",
    "get_active_execution",
    "make_executor",
    "set_active_execution",
    "worker_count",
]

logger = logging.getLogger(__name__)

#: Module-level registry (the ``CACHE_METRICS`` pattern): executor fault
#: counters surface through the same instrument types as every other
#: repro metric and are Prometheus-exportable
#: (``repro experiment --prom-out``).
EXECUTOR_METRICS = MetricsRegistry()


def worker_count(n_tasks: int, n_cpus: int) -> int:
    """Pool size: ``REPRO_MAX_WORKERS`` wins when set and positive;
    otherwise leave one core for the parent.  Never exceeds ``n_tasks``
    and never drops below 1."""
    env = os.environ.get("REPRO_MAX_WORKERS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            logger.warning("ignoring non-integer REPRO_MAX_WORKERS=%r", env)
        else:
            if cap >= 1:
                return max(1, min(cap, n_tasks))
            logger.warning("ignoring non-positive REPRO_MAX_WORKERS=%r", env)
    return max(1, min(n_cpus - 1, n_tasks))


# ----------------------------------------------------------------------
# Fault policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellFaultPolicy:
    """Retry/timeout policy applied to every cell of a matrix.

    Attributes
    ----------
    max_attempts:
        Total attempts per cell (first try included), so
        ``max_attempts=3`` allows two retries.
    base_backoff_seconds / max_backoff_seconds / jitter:
        Decorrelated-jitter exponential backoff between attempts (the
        same AWS-architecture-blog variant as
        :class:`repro.core.resilience.RetryPolicy`): each sleep is drawn
        from ``uniform(base, prev * 3)``, capped.  Without jitter the
        deterministic envelope ``min(cap, prev * 3)`` is used.
    cell_timeout_seconds:
        Per-cell wall-clock budget (``None`` disables).  Pool executors
        abandon the straggling future and resubmit; the serial executor
        classifies post-hoc (an in-process cell cannot be preempted).
    seed:
        Seeds the per-cell backoff RNG, so a retried sweep draws the
        same backoff schedule on replay.
    """

    max_attempts: int = 3
    base_backoff_seconds: float = 0.05
    max_backoff_seconds: float = 2.0
    jitter: bool = True
    cell_timeout_seconds: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_backoff_seconds < 0:
            raise ValueError("base backoff must be non-negative")
        if self.max_backoff_seconds < self.base_backoff_seconds:
            raise ValueError("backoff cap must be >= base")
        if (
            self.cell_timeout_seconds is not None
            and self.cell_timeout_seconds <= 0
        ):
            raise ValueError("cell timeout must be positive (or None)")

    def backoff_rng(self, cell_pos: int) -> random.Random:
        """Per-cell RNG: deterministic for a fixed (policy seed, cell)."""
        return random.Random((self.seed * 1_000_003 + cell_pos) & 0xFFFFFFFF)

    def next_backoff(
        self, previous: float, rng: Optional[random.Random]
    ) -> float:
        """The next backoff given the ``previous`` one (0.0 first time)."""
        lo = self.base_backoff_seconds
        envelope = max(lo, previous * 3.0)
        if self.jitter and rng is not None:
            draw = rng.uniform(lo, envelope)
        else:
            draw = envelope
        return min(self.max_backoff_seconds, draw)


@dataclass(frozen=True)
class InjectedFault:
    """One fault a :class:`ChaosExecutor` asks an inner executor to
    realise on a specific (cell, attempt).

    ``kind`` is ``"crash"`` (kill the worker / raise an injected-crash
    marker in-process), ``"exception"`` (raise inside the cell), or
    ``"straggler"`` (sleep ``delay_seconds`` before running — past the
    cell timeout this realises an injected *timeout*).
    """

    kind: str
    delay_seconds: float = 0.0


#: Signature of the injection hook chaos wrappers install on inner
#: executors: ``(cell_position, attempt_index) -> Optional[InjectedFault]``.
InjectFn = Callable[[int, int], Optional[InjectedFault]]


# ----------------------------------------------------------------------
# Outcomes and failures
# ----------------------------------------------------------------------
@dataclass
class CellOutcome:
    """The terminal outcome of one submitted cell (after all retries).

    ``index`` is the cell's position in the sequence passed to
    :meth:`Executor.submit`; ``result`` is ``None`` iff the cell failed
    terminally, in which case ``failure_kind`` holds the classification
    of the *last* attempt.
    """

    index: int
    result: Optional["RunResult"]
    attempts: int = 1
    crashes: int = 0
    timeouts: int = 0
    exceptions: int = 0
    failure_kind: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


#: Per failure kind, the :class:`CellOutcome` tally and the executor
#: counter one failed attempt adds to.  ``crash`` — the worker process
#: died (OOM, SIGKILL, pickling bug); ``timeout`` — the cell exceeded its
#: wall-clock budget; ``exception`` — the cell raised.
_FAULT_TALLIES = {
    "crash": ("crashes", "executor.worker_crash"),
    "timeout": ("timeouts", "executor.cell_timeout"),
    "exception": ("exceptions", "executor.cell_exception"),
}


@dataclass
class CellState:
    """One cell across its attempts: its outcome so far and the retry
    state every executor keeps (the pool's wall-clock deadline, the last
    backoff and the lazily built per-cell backoff RNG)."""

    pos: int
    spec: "CellSpec"
    out: CellOutcome
    deadline: float = float("inf")
    backoff: float = 0.0
    rng: Optional[random.Random] = None

    def failed(
        self, kind: str, error: str, policy: Optional[CellFaultPolicy]
    ) -> Optional[float]:
        """Charge the attempt that just failed with ``kind``.

        Returns the backoff to wait before the next attempt, or ``None``
        when the cell is out of attempts (``out`` is then terminal).
        """
        out = self.out
        tally, counter = _FAULT_TALLIES[kind]
        setattr(out, tally, getattr(out, tally) + 1)
        out.error = error
        EXECUTOR_METRICS.counter(counter).inc()
        if policy is None or out.attempts >= policy.max_attempts:
            out.failure_kind = kind
            out.result = None
            EXECUTOR_METRICS.counter("executor.cell_failure").inc()
            return None
        EXECUTOR_METRICS.counter("executor.cell_retry").inc()
        if self.rng is None and policy.jitter:
            self.rng = policy.backoff_rng(self.pos)
        self.backoff = policy.next_backoff(self.backoff, self.rng)
        return self.backoff


@dataclass(frozen=True)
class CellFailure:
    """A terminally failed cell, as recorded on a ``MatrixResult``."""

    index: int
    scheme: str
    model: str
    seed: int
    kind: str
    attempts: int
    error: str

    def describe(self) -> str:
        return (
            f"cell {self.index} ({self.scheme}/{self.model}/seed "
            f"{self.seed}): {self.kind} after {self.attempts} attempt(s)"
            + (f" — {self.error}" if self.error else "")
        )


class CellExecutionError(RuntimeError):
    """Raised by ``run_matrix`` when cells fail terminally and
    ``on_cell_failure == "fail"``."""

    def __init__(self, failures: Sequence[CellFailure]) -> None:
        self.failures = list(failures)
        lines = [f.describe() for f in self.failures[:5]]
        if len(self.failures) > 5:
            lines.append(f"... and {len(self.failures) - 5} more")
        super().__init__(
            f"{len(self.failures)} cell(s) failed terminally:\n  "
            + "\n  ".join(lines)
        )


# ----------------------------------------------------------------------
# The interface
# ----------------------------------------------------------------------
class Executor(abc.ABC):
    """Pluggable execution backend for experiment matrix cells.

    ``submit(cells)`` yields one :class:`CellOutcome` per cell in
    *completion* order; ``outcome.index`` maps back to the submitted
    sequence, so callers reconstruct submission order regardless of
    scheduling.  Executors are reusable across ``submit`` calls.
    """

    #: Registry name (``--executor`` choice).
    name: str = "abstract"

    #: Injection hook installed by chaos wrappers; ``None`` in
    #: production.  Called as ``inject(cell_position, attempt_index)``
    #: before each attempt is launched.
    inject: Optional[InjectFn] = None

    @abc.abstractmethod
    def submit(
        self,
        cells: Sequence["CellSpec"],
        policy: Optional[CellFaultPolicy] = None,
    ) -> Iterator[CellOutcome]:
        """Execute every cell, yielding outcomes as they complete."""


# ----------------------------------------------------------------------
# Process-wide execution settings (configured by the CLI, consumed by
# run_matrix — the set_active_cache pattern, so experiment modules need
# no per-flag plumbing).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionSettings:
    """How ``run_matrix`` should execute cells when the caller does not
    say explicitly.

    ``executor`` is an :data:`EXECUTOR_NAMES` name (``None`` keeps the
    size-based serial/pool heuristic).
    """

    executor: Optional[str] = None
    fault_policy: Optional[CellFaultPolicy] = None
    on_cell_failure: str = "fail"
    chaos_seed: int = 0

    def __post_init__(self) -> None:
        if self.on_cell_failure not in ("fail", "skip"):
            raise ValueError("on_cell_failure must be 'fail' or 'skip'")


_active_execution: Optional[ExecutionSettings] = None


def set_active_execution(
    settings: Optional[ExecutionSettings],
) -> Optional[ExecutionSettings]:
    """Install (or clear, with ``None``) the process-wide execution
    settings consulted by ``run_matrix``; returns the previous value so
    callers can restore it."""
    global _active_execution
    previous, _active_execution = _active_execution, settings
    return previous


def get_active_execution() -> Optional[ExecutionSettings]:
    return _active_execution


#: ``--executor`` choices (``auto`` keeps the size heuristic).
EXECUTOR_NAMES = ("serial", "pool", "chaos-serial", "chaos-pool")


def make_executor(
    name: str,
    *,
    max_workers: Optional[int] = None,
    chaos_seed: int = 0,
) -> Executor:
    """Build an executor by registry name.

    ``chaos-*`` names wrap the base executor in a
    :class:`~repro.experiments.executors.chaos.ChaosExecutor` with the
    default testing fault mix (seeded by ``chaos_seed``).
    """
    if name not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {name!r}; known: {', '.join(EXECUTOR_NAMES)}"
        )
    # Each backend is imported only when built: the process pool's
    # imports (multiprocessing, subprocess) are the heaviest.
    if name.endswith("serial"):
        from repro.experiments.executors.serial import SerialExecutor

        inner: Executor = SerialExecutor()
    else:
        from repro.experiments.executors.local_pool import LocalPoolExecutor

        inner = LocalPoolExecutor(max_workers=max_workers)
    if not name.startswith("chaos-"):
        return inner
    from repro.experiments.executors.chaos import ChaosExecutor

    return ChaosExecutor(inner, seed=chaos_seed)
