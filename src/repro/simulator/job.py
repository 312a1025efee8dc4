"""The unit of work a device executes.

A :class:`Job` wraps one :class:`~repro.framework.request.Batch` with the
profiled quantities the device physics needs (solo time, FBR, memory
footprint) and a completion callback.  Devices never look inside the batch;
the framework layer translates between batches and jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.framework.request import Batch, ShareMode

__all__ = ["Job", "NOISE_BLOCK"]

#: Devices draw execution noise this many values at a time (the same
#: values as one ``standard_normal()`` per job, in order).
NOISE_BLOCK = 64


@dataclass(eq=False, slots=True)
class Job:
    """A batch plus its execution parameters on a specific device.

    Slotted: jobs are the densest allocation on the hot path (one per
    sub-batch), and ``__slots__`` removes the per-instance ``__dict__``.

    Attributes
    ----------
    batch:
        The underlying request batch (breakdown fields are filled in as the
        job progresses).
    solo_time:
        Profiled isolated execution time on the target device, seconds.
    fbr:
        Fractional Bandwidth Requirement on the target device (0 for CPU).
    mem_gb:
        Device memory held while the job is resident.
    mode:
        ``ShareMode.SPATIAL`` or ``ShareMode.TEMPORAL``.
    on_complete:
        Called with this job when execution finishes.
    on_evict:
        Called when the framework pulls the job out of a device queue
        (hardware switch / failover) — releases its container without
        recording a completion.
    slowdown:
        Multiplicative straggler inflation (chaos ``Slowdowns`` windows);
        1.0 means healthy.  The device stretches execution by this factor
        and attributes the stretch to ``failure_wait`` rather than
        interference.
    work:
        Actual work requirement in solo-seconds (solo time perturbed by the
        device's execution noise); set by the device at submission.
    """

    batch: Batch
    solo_time: float
    fbr: float
    mem_gb: float
    mode: str = ShareMode.SPATIAL
    on_complete: Optional[Callable[["Job"], None]] = None
    on_evict: Optional[Callable[["Job"], None]] = None
    slowdown: float = 1.0
    work: float = field(default=0.0)
    submitted_at: float = field(default=0.0)
    started_at: Optional[float] = field(default=None)

    def __post_init__(self) -> None:
        if not (self.solo_time > 0 and self.fbr >= 0 and self.mem_gb >= 0
                and self.slowdown >= 1.0):
            if self.solo_time <= 0:
                raise ValueError("solo_time must be positive")
            if self.fbr < 0:
                raise ValueError("fbr cannot be negative")
            if self.mem_gb < 0:
                raise ValueError("mem_gb cannot be negative")
            if self.slowdown < 1.0:
                raise ValueError("slowdown cannot speed execution up")

    @property
    def is_spatial(self) -> bool:
        return self.mode == ShareMode.SPATIAL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(batch={self.batch.batch_id}, solo={self.solo_time * 1e3:.1f}ms, "
            f"fbr={self.fbr:.2f}, {self.mode})"
        )
