"""Request and batch abstractions.

Requests are the unit of SLO accounting; batches are the unit of execution.
Following the hpc-parallel guides we never materialise per-request Python
objects on the hot path: a :class:`Batch` carries a NumPy array of absolute
arrival timestamps, and per-request latencies are computed vectorised when
the batch completes (all requests in a batch finish together, which is how
batched inference behaves).

A batch also carries a latency *breakdown* mirroring the paper's Figures 1
and 4: time is attributed to cold-start waiting, queueing (waiting for a
container or for the device), pure execution ("min possible time"), and
interference inflation (execution time beyond the isolated solo time).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.workloads.models import ModelSpec

__all__ = ["PHASES", "Batch", "BatchBreakdown", "ShareMode", "new_batch_id"]

#: The six causal phases of a request's life, in timeline order: the
#: fields of :class:`BatchBreakdown`.  This is the single source of truth
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

_batch_ids = itertools.count()
_FLOAT64 = np.dtype(np.float64)


def new_batch_id() -> int:
    """Return a process-unique monotonically increasing batch id (the
    default for batches built outside a run; a run numbers its batches
    from its cluster's ``batch_ids``)."""
    return next(_batch_ids)


class ShareMode:
    """Execution mode of a batch on a GPU device.

    ``SPATIAL`` batches co-run concurrently under MPS and suffer
    interference; ``TEMPORAL`` batches wait in the device FIFO and run with
    the device to themselves (queueing delay instead of interference).  CPU
    devices ignore the mode.
    """

    SPATIAL = "spatial"
    TEMPORAL = "temporal"


@dataclass(slots=True)
class BatchBreakdown:
    """Where a batch's end-to-end latency went, in seconds.

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
    """

    batching_wait: float = 0.0
    cold_start_wait: float = 0.0
    queue_delay: float = 0.0
    exec_solo: float = 0.0
    interference_extra: float = 0.0
    failure_wait: float = 0.0


@dataclass(eq=False, slots=True)
class Batch:
    """A group of requests executed together.

    Slotted: one instance per sub-batch on the hot path; ``__slots__``
    drops the per-instance ``__dict__`` (the request representation is
    already columnar — ``arrivals`` is the per-request state).

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
    """

    model: "ModelSpec"
    arrivals: np.ndarray
    dispatched_at: float
    mode: str = ShareMode.SPATIAL
    batch_id: int = field(default_factory=new_batch_id)
    breakdown: BatchBreakdown = field(default_factory=BatchBreakdown)
    completed_at: Optional[float] = None
    hardware_name: Optional[str] = None
    # Set by the device when execution starts (for utilization accounting).
    started_at: Optional[float] = None
    #: Failed dispatch attempts re-driven by the resilience layer.
    retries: int = 0

    def __post_init__(self) -> None:
        a = self.arrivals  # a non-empty 1-D float64 ndarray is kept as is
        if (type(a) is not np.ndarray or a.dtype is not _FLOAT64
                or a.ndim != 1 or a.size == 0):
            a = self.arrivals = np.asarray(a, dtype=np.float64)
            if a.ndim != 1 or a.size == 0:
                raise ValueError("a batch needs a 1-D, non-empty arrivals array")

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
