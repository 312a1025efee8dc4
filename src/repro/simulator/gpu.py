"""GPU device model: hybrid MPS (spatial) + FIFO (temporal) execution.

This is the physics the schedulers are judged against.

Spatial jobs co-run under MPS as a processor-sharing set: every resident
job progresses at rate ``1 / slowdown(total_fbr)`` where ``slowdown`` is the
cluster's :class:`~repro.simulator.interference.InterferenceModel`.  When
the resident set changes (a job arrives or finishes), remaining work is
advanced and the next completion is rescheduled — the standard
event-driven processor-sharing construction, O(k) per transition.

Temporal jobs wait in a FIFO and are *promoted* onto the device only when it
is otherwise idle, which is exactly what software time sharing is: the
framework holds batches and submits the next one when the previous returns.
A promoted temporal job therefore usually runs interference-free, but a
spatial job submitted while it runs will co-run with it (MPS is a device
mode, not a per-job courtesy).

Device memory is a hard bound: a spatial job that does not fit waits in a
pending queue (FIFO, before the temporal queue) until residency frees up.
This is what physically restrains schedulers that try to co-locate
everything (INFless/Llama) on small GPUs.

The device runs :class:`~repro.framework.request.Batch` objects whose
execution parameters the framework set (:meth:`Batch.set_execution`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

import numpy as np

from repro.framework.request import Batch, ShareMode
from repro.hardware.catalog import HardwareSpec
from repro.simulator.cpu import NOISE_BLOCK
from repro.simulator.engine import Simulator
from repro.simulator.interference import DEFAULT_INTERFERENCE, InterferenceModel

__all__ = ["GPUDevice"]

#: Remaining work below this many solo-seconds counts as finished
#: (guards float accumulation error in the processor-sharing updates).
_WORK_EPS = 1e-9
_SPATIAL = ShareMode.SPATIAL


class GPUDevice:
    """A single GPU with hybrid spatio-temporal sharing.

    Parameters
    ----------
    sim:
        The discrete-event simulator this device schedules on.
    spec:
        Hardware spec (memory capacity, name) of the hosting node.
    interference:
        Ground-truth co-location slowdown law.
    rng:
        Source of per-batch execution noise.
    exec_noise_sigma:
        Lognormal-ish multiplicative noise on each job's work requirement
        (real kernels jitter a few percent run to run).
    """

    def __init__(
        self,
        sim: Simulator,
        spec: HardwareSpec,
        interference: InterferenceModel = DEFAULT_INTERFERENCE,
        rng: Optional[np.random.Generator] = None,
        exec_noise_sigma: float = 0.02,
    ) -> None:
        if not spec.is_gpu:
            raise ValueError(f"{spec.name} is not a GPU node")
        self.sim = sim
        self.spec = spec
        self.interference = interference
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.exec_noise_sigma = float(exec_noise_sigma)
        #: A block of ``rng``'s standard normals; ``_noise_at`` is the next.
        self._noise, self._noise_at = None, NOISE_BLOCK

        self._active: list[Batch] = []
        #: Aggregate bandwidth demand of the resident set: the fresh sum,
        #: recomputed whenever the set changes (never updated in place).
        self.total_fbr = 0.0
        self._pending_spatial: deque[Batch] = deque()
        self._temporal_q: deque[Batch] = deque()
        self._mem_used = 0.0
        self._last_update = sim.now
        #: The armed next-completion heap entry, if any.
        self._completion_ev: Optional[list] = None
        #: Host-side service inflation from co-located CPU workloads
        #: (Table III); 1.0 means no co-location.
        self.contention_factor = 1.0

        # Utilization accounting: cumulative busy (non-idle) seconds.
        self.busy_seconds = 0.0
        self._busy_since: Optional[float] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_active(self) -> int:
        """Jobs currently executing (spatial set plus promoted temporal)."""
        return len(self._active)

    def queued_requests(self) -> int:
        """Requests sitting in the device queues (Algorithm 1's
        ``curr_queue_info``)."""
        pending, temporal = self._pending_spatial, self._temporal_q
        return (sum(b.arrivals.size for b in pending) if pending else 0) + (
            sum(b.arrivals.size for b in temporal) if temporal else 0
        )

    def evict_queued(self) -> list[Batch]:
        """Remove batches that have not started executing (hardware switch:
        the software queues belong to the framework, which re-routes them
        to the new node).  Running batches finish where they are."""
        evicted = list(self._pending_spatial) + list(self._temporal_q)
        self._pending_spatial.clear()
        self._temporal_q.clear()
        return evicted

    @property
    def n_active_spatial(self) -> int:
        """Resident batches co-running under MPS (time-series probe)."""
        return sum(1 for b in self._active if b.mode == _SPATIAL)

    @property
    def n_active_temporal(self) -> int:
        """Promoted temporal batches currently executing (time-series probe)."""
        return sum(1 for b in self._active if b.mode != _SPATIAL)

    @property
    def mem_used_gb(self) -> float:
        """Device memory held by the resident set (time-series probe)."""
        return self._mem_used

    @property
    def mem_free_gb(self) -> float:
        return self.spec.memory_gb - self._mem_used

    @property
    def co_run_level(self) -> int:
        """Jobs sharing the device right now (the MPS co-location degree;
        1 while a lone temporal job runs, 0 when idle)."""
        return len(self._active)

    @property
    def occupancy(self) -> float:
        """Instantaneous device occupancy in ``[0, 1]``.

        For a GPU this is the resident set's aggregate bandwidth demand
        (``total_fbr``) clamped to 1 — the MPS occupancy the interference
        model slows the set down by.  A resident set with zero recorded
        FBR (e.g. profile-less synthetic jobs) still counts as fully
        occupied: the device is serving.
        """
        if not self._active:
            return 0.0
        fbr = self.total_fbr
        return min(1.0, fbr) if fbr > 0.0 else 1.0

    @property
    def idle(self) -> bool:
        return not self._active and not self._pending_spatial and not self._temporal_q

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, batch: Batch) -> None:
        """Hand a batch to the device.

        Spatial batches start immediately if device memory allows,
        otherwise they wait in the pending queue.  Temporal batches join
        the FIFO and start when the device empties.
        """
        self._advance()
        batch.submitted_at = self.sim.now
        i = self._noise_at
        if i == NOISE_BLOCK:
            self._noise, i = self.rng.standard_normal(NOISE_BLOCK), 0
        self._noise_at = i + 1
        noise = 1.0 + self.exec_noise_sigma * self._noise.item(i)
        batch.work = (
            batch.solo_time * max(0.5, noise) * self.contention_factor
            * batch.slowdown
        )
        if batch.mode == _SPATIAL:
            if batch.mem_gb <= self.mem_free_gb and not self._pending_spatial:
                self._start(batch)
            else:
                self._pending_spatial.append(batch)
        else:
            self._temporal_q.append(batch)
            self._maybe_promote()
        self._reschedule()

    # ------------------------------------------------------------------
    # Failure support
    # ------------------------------------------------------------------
    def evict_all(self) -> list[Batch]:
        """Stop everything (node failure); return unfinished batches.

        Batches keep their arrival times so the framework can re-dispatch
        them elsewhere; execution progress is lost, as it is when a real
        node disappears.
        """
        self._advance()
        evicted = list(self._active) + list(self._pending_spatial) + list(
            self._temporal_q
        )
        for batch in evicted:
            batch.started_at = None
            batch.work = 0.0
        self._active.clear()
        self._pending_spatial.clear()
        self._temporal_q.clear()
        self._mem_used = 0.0
        self.total_fbr = 0.0
        self._mark_busy_transition()
        if self._completion_ev is not None:
            self.sim.cancel(self._completion_ev)
            self._completion_ev = None
        return evicted

    def evict_one(self) -> Optional[Batch]:
        """OOM-kill one *running* batch mid-execution (chaos injection).

        The youngest resident is the victim — the container that grew
        last is the one the kernel's OOM killer reaps.  Its progress is
        lost; the batch (arrivals intact) is returned for the framework
        to drop, requeue, or retry.  Returns ``None`` when idle.
        """
        self._advance()
        if not self._active:
            return None
        batch = self._active.pop()
        self._mem_used -= batch.mem_gb
        self.total_fbr = float(sum(b.fbr for b in self._active))
        batch.started_at = None
        batch.work = 0.0
        self._drain_pending()
        self._maybe_promote()
        self._mark_busy_transition()
        self._reschedule()
        return batch

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _start(self, batch: Batch) -> None:
        now = batch.started_at = self.sim.now
        self._active.append(batch)
        self._mem_used += batch.mem_gb
        self.total_fbr = float(sum(b.fbr for b in self._active))
        batch.co_run, batch.start_fbr = len(self._active), self.total_fbr
        if self._busy_since is None:
            self._busy_since = now

    def _maybe_promote(self) -> None:
        """Move the temporal head onto the device if it is idle."""
        if not self._active and not self._pending_spatial and self._temporal_q:
            self._start(self._temporal_q.popleft())

    def _drain_pending(self) -> None:
        """Admit memory-pending spatial batches that now fit (FIFO order)."""
        while (
            self._pending_spatial
            and self._pending_spatial[0].mem_gb <= self.mem_free_gb
        ):
            self._start(self._pending_spatial.popleft())

    def _rate(self) -> float:
        """Per-batch progress rate of the current resident set."""
        if not self._active:
            return 1.0
        return 1.0 / self.interference.slowdown(self.total_fbr)

    def _advance(self) -> None:
        """Credit elapsed wall time to every resident batch's remaining work."""
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._active:
            progressed = elapsed * self._rate()
            for batch in self._active:
                batch.work -= progressed
        self._last_update = now

    def _mark_busy_transition(self) -> None:
        now = self.sim.now
        if self._active and self._busy_since is None:
            self._busy_since = now
        elif not self._active and self._busy_since is not None:
            self.busy_seconds += now - self._busy_since
            self._busy_since = None

    def _reschedule(self) -> None:
        """(Re)arm the next-completion event for the resident set."""
        if self._completion_ev is not None:
            self.sim.cancel(self._completion_ev)
            self._completion_ev = None
        if not self._active:
            return
        min_work = min(b.work for b in self._active)
        delay = max(0.0, min_work) / self._rate()
        self._completion_ev = self.sim.schedule(delay, self._on_completion)

    def _on_completion(self) -> None:
        self._completion_ev = None
        self._advance()
        finished = [b for b in self._active if b.work <= _WORK_EPS]
        if not finished:
            # Numerical underrun: re-arm and let the set run to completion.
            self._reschedule()
            return
        for batch in finished:
            self._active.remove(batch)
            self._mem_used -= batch.mem_gb
            # Before the completion hook: it may submit the next batch.
            self.total_fbr = float(sum(b.fbr for b in self._active))
            self._complete(batch)
        self._drain_pending()
        self._maybe_promote()
        self._mark_busy_transition()
        self._reschedule()

    def _complete(self, batch: Batch) -> None:
        now = self.sim.now
        started = batch.started_at
        assert started is not None
        wait = started - batch.submitted_at
        exec_time = now - started
        # A straggler window stretches the batch's nominal service time;
        # the stretch is charged to failure_wait, and only time beyond the
        # *inflated* solo counts as interference.
        solo = batch.solo_time
        inflated_solo = solo * batch.slowdown
        interference_extra = max(0.0, exec_time - inflated_solo)
        if batch.mode == _SPATIAL:
            # A spatial batch only ever waits because co-location pressure
            # exhausted device memory — that wait is interference-induced.
            interference_extra += wait
        else:
            batch.queue_delay += wait
        batch.exec_solo += min(exec_time, solo)
        batch.failure_wait += max(0.0, min(exec_time, inflated_solo) - solo)
        batch.interference_extra += interference_extra
        batch.completed_at = now
        batch.hardware_name = self.spec.name
        if batch.on_complete is not None:
            batch.on_complete(batch)
