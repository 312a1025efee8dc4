"""Request and batch abstractions.

Requests are the unit of SLO accounting; batches are the unit of execution.
Following the hpc-parallel guides we never materialise per-request Python
objects on the hot path: a :class:`Batch` carries a NumPy array of absolute
arrival timestamps, and per-request latencies are computed vectorised when
the batch completes (all requests in a batch finish together, which is how
batched inference behaves).

A batch also carries its latency *breakdown* mirroring the paper's Figures
1 and 4 (the six :data:`PHASES`): time is attributed to cold-start waiting,
queueing (waiting for a container or for the device), pure execution ("min
possible time"), and interference inflation (execution time beyond the
isolated solo time).  It is also the unit a device executes: the framework
sets its profiled execution parameters with :meth:`Batch.set_execution`
before submitting it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.workloads.models import ModelSpec

__all__ = ["PHASES", "Batch", "ShareMode"]

#: The six causal phases of a request's life, in timeline order: the
#: breakdown fields of :class:`Batch`.  This is the single source of truth
#: for phase names: the batch log's phase columns, the request trace, the
#: trace-report latency table, and the attribution causes all cite these
#: names.
PHASES: tuple[str, ...] = (
    "batching_wait",
    "cold_start_wait",
    "queue_delay",
    "exec_solo",
    "interference_extra",
    "failure_wait",
)

#: Process-unique batch ids for batches built outside a run (a run
#: numbers its batches from its cluster's ``batch_ids``).
_batch_ids = itertools.count()
_FLOAT64 = np.dtype(np.float64)


class ShareMode:
    """Execution mode of a batch on a GPU device.

    ``SPATIAL`` batches co-run concurrently under MPS and suffer
    interference; ``TEMPORAL`` batches wait in the device FIFO and run with
    the device to themselves (queueing delay instead of interference).  CPU
    devices ignore the mode.
    """

    SPATIAL = "spatial"
    TEMPORAL = "temporal"


class Batch:
    """A group of requests executed together.

    One instance per sub-batch on the hot path, and the only one: the
    batch is also the job a device runs, so it holds its latency
    breakdown and its execution parameters itself.  Slotted, with a
    hand-written ``__init__`` (the request representation is already
    columnar — ``arrivals`` is the per-request state).

    Parameters
    ----------
    model:
        The inference model these requests target.
    arrivals:
        Absolute arrival timestamps (seconds), sorted ascending.
    dispatched_at:
        Time the batcher released the batch to the scheduler.
    mode:
        :class:`ShareMode` chosen by the policy (GPU only).
    batch_id:
        Unique id; ``None`` draws the next process-unique id.
    batching_wait:
        The first breakdown phase (see below).

    Attributes
    ----------
    batching_wait:
        Time the *first* request of the batch waited for the batch to be
        dispatched (the batching window).
    cold_start_wait:
        Time spent waiting for a container to finish cold-starting.
    queue_delay:
        Time spent waiting for a warm container or in the device's temporal
        FIFO.
    exec_solo:
        The isolated ("min possible") execution time for this batch size on
        the hardware that ran it.
    interference_extra:
        Execution time beyond ``exec_solo`` caused by MPS co-location.
    failure_wait:
        Time lost to injected faults: failed dispatch attempts spent on a
        node that then died (retry path) and straggler execution inflation
        (chaos slowdown windows).
    completed_at / hardware_name:
        Set by the device when the batch completes.
    started_at:
        Start of the current execution attempt: ``None`` before the first
        start and after an eviction; at completion, the start of the
        execution that completed.
    retries:
        Failed dispatch attempts re-driven by the resilience layer.
    co_run / start_fbr:
        The device's execution context at the batch's last start: jobs
        sharing it (this one included; 0 until the batch starts) and
        their aggregate FBR (0.0 on a CPU).
    solo_time / fbr / mem_gb / on_complete / on_evict / slowdown:
        Execution parameters on the target device, set by
        :meth:`set_execution` before each submission.
    work:
        Remaining work in solo-seconds on a GPU (solo time perturbed by
        the device's execution noise); set by the device at submission.
    submitted_at:
        Time of the last submission to a device.
    """

    __slots__ = (
        "model", "arrivals", "dispatched_at", "mode", "batch_id", *PHASES,
        "completed_at", "hardware_name", "started_at", "retries", "co_run",
        "start_fbr", "solo_time", "fbr", "mem_gb", "slowdown", "on_complete",
        "on_evict", "work", "submitted_at",
    )

    def __init__(
        self,
        model: "ModelSpec",
        arrivals: np.ndarray,
        dispatched_at: float,
        mode: str = ShareMode.SPATIAL,
        batch_id: Optional[int] = None,
        batching_wait: float = 0.0,
    ) -> None:
        # A non-empty 1-D float64 ndarray is kept as is.
        if (type(arrivals) is not np.ndarray or arrivals.dtype is not _FLOAT64
                or arrivals.ndim != 1 or arrivals.size == 0):
            arrivals = np.asarray(arrivals, dtype=np.float64)
            if arrivals.ndim != 1 or arrivals.size == 0:
                raise ValueError("a batch needs a 1-D, non-empty arrivals array")
        self.model = model
        self.arrivals = arrivals
        self.dispatched_at = dispatched_at
        self.mode = mode
        self.batch_id = next(_batch_ids) if batch_id is None else batch_id
        self.batching_wait = batching_wait
        self.cold_start_wait = self.queue_delay = self.exec_solo = 0.0
        self.interference_extra = self.failure_wait = 0.0
        self.completed_at = self.hardware_name = self.started_at = None
        self.retries = self.co_run = 0
        self.start_fbr = self.solo_time = self.fbr = self.mem_gb = 0.0
        self.slowdown = 1.0
        self.on_complete = self.on_evict = None
        self.work = self.submitted_at = 0.0

    def set_execution(
        self,
        solo_time: float,
        fbr: float,
        mem_gb: float,
        on_complete: Optional[Callable[["Batch"], None]] = None,
        on_evict: Optional[Callable[["Batch"], None]] = None,
        slowdown: float = 1.0,
    ) -> None:
        """Set the profiled execution parameters on the target device.

        ``solo_time`` is the isolated execution time (seconds), ``fbr``
        the Fractional Bandwidth Requirement (0 on a CPU) and ``mem_gb``
        the device memory held while resident.  ``on_complete`` is
        called with the batch when execution finishes; ``on_evict`` when
        the framework pulls it out of a device queue (hardware switch,
        OOM kill) and its container must be released without a
        completion.  ``slowdown`` is the chaos straggler inflation (1.0
        is healthy): the device stretches execution by it and charges
        the stretch to ``failure_wait``, not interference.
        """
        if not (solo_time > 0 and fbr >= 0 and mem_gb >= 0
                and slowdown >= 1.0):
            if solo_time <= 0:
                raise ValueError("solo_time must be positive")
            if fbr < 0:
                raise ValueError("fbr cannot be negative")
            if mem_gb < 0:
                raise ValueError("mem_gb cannot be negative")
            if slowdown < 1.0:
                raise ValueError("slowdown cannot speed execution up")
        self.solo_time = solo_time
        self.fbr = fbr
        self.mem_gb = mem_gb
        self.on_complete = on_complete
        self.on_evict = on_evict
        self.slowdown = slowdown

    @property
    def size(self) -> int:
        """Number of requests in the batch."""
        return int(self.arrivals.size)

    @property
    def first_arrival(self) -> float:
        return float(self.arrivals[0])

    def complete(self, now: float) -> None:
        """Mark the batch complete at ``now``."""
        self.completed_at = float(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.completed_at is not None else self.mode
        return (
            f"Batch(id={self.batch_id}, model={self.model.name}, "
            f"n={self.size}, {state})"
        )
