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

    @property
    def total(self) -> float:
        """Sum of all components (equals end-to-end latency of the last
        arrival when accounting is complete)."""
        return (
            self.batching_wait
            + self.cold_start_wait
            + self.queue_delay
            + self.exec_solo
            + self.interference_extra
            + self.failure_wait
        )

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view, used by the analysis layer."""
        return {
            "batching_wait": self.batching_wait,
            "cold_start_wait": self.cold_start_wait,
            "queue_delay": self.queue_delay,
            "exec_solo": self.exec_solo,
            "interference_extra": self.interference_extra,
            "failure_wait": self.failure_wait,
        }


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
        self.arrivals = np.asarray(self.arrivals, dtype=np.float64)
        if self.arrivals.ndim != 1 or self.arrivals.size == 0:
            raise ValueError("a batch needs a 1-D, non-empty arrivals array")

    @property
    def size(self) -> int:
        """Number of requests in the batch."""
        return int(self.arrivals.size)

    @property
    def first_arrival(self) -> float:
        return float(self.arrivals[0])

    @property
    def last_arrival(self) -> float:
        return float(self.arrivals[-1])

    def latencies(self) -> np.ndarray:
        """Per-request end-to-end latency (seconds), vectorised.

        Raises
        ------
        ValueError
            If the batch has not completed yet.
        """
        if self.completed_at is None:
            raise ValueError(f"batch {self.batch_id} has not completed")
        return self.completed_at - self.arrivals

    def complete(self, now: float) -> None:
        """Mark the batch complete at ``now``."""
        self.completed_at = float(now)

    def split(self, sizes: list[int]) -> list["Batch"]:
        """Split this batch into consecutive sub-batches of ``sizes``.

        Used by the job distributor to carve a window's worth of requests
        into spatial and temporal batches of policy-chosen sizes.  Breakdown
        and dispatch metadata are copied; arrival arrays are views.
        """
        if sum(sizes) != self.size:
            raise ValueError(
                f"split sizes {sizes} do not sum to batch size {self.size}"
            )
        if any(s <= 0 for s in sizes):
            raise ValueError(f"split sizes must be positive: {sizes}")
        out: list[Batch] = []
        offset = 0
        for s in sizes:
            sub = Batch(
                model=self.model,
                arrivals=self.arrivals[offset : offset + s],
                dispatched_at=self.dispatched_at,
                mode=self.mode,
            )
            offset += s
        # (constructed above to keep ids ordered; collected here)
            out.append(sub)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.completed_at is not None else self.mode
        return (
            f"Batch(id={self.batch_id}, model={self.model.name}, "
            f"n={self.size}, {state})"
        )
