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
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

import numpy as np

from repro.framework.request import ShareMode
from repro.hardware.catalog import HardwareSpec
from repro.simulator.engine import Event, Simulator
from repro.simulator.interference import DEFAULT_INTERFERENCE, InterferenceModel
from repro.simulator.job import NOISE_BLOCK, Job

__all__ = ["GPUDevice"]

#: Remaining work below this many solo-seconds counts as finished
#: (guards float accumulation error in the processor-sharing updates).
_WORK_EPS = 1e-9


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
        Source of per-job execution noise.
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

        self._active: list[Job] = []
        #: Aggregate bandwidth demand of the resident set: the fresh sum,
        #: recomputed whenever the set changes (never updated in place).
        self.total_fbr = 0.0
        self._pending_spatial: deque[Job] = deque()
        self._temporal_q: deque[Job] = deque()
        self._mem_used = 0.0
        self._last_update = sim.now
        self._completion_ev: Optional[Event] = None
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
        return (sum(j.batch.size for j in pending) if pending else 0) + (
            sum(j.batch.size for j in temporal) if temporal else 0
        )

    def evict_queued(self) -> list[Job]:
        """Remove jobs that have not started executing (hardware switch:
        the software queues belong to the framework, which re-routes them
        to the new node).  Running jobs finish where they are."""
        evicted = list(self._pending_spatial) + list(self._temporal_q)
        self._pending_spatial.clear()
        self._temporal_q.clear()
        return evicted

    @property
    def n_active_spatial(self) -> int:
        """Resident jobs co-running under MPS (time-series probe)."""
        return sum(1 for j in self._active if j.is_spatial)

    @property
    def n_active_temporal(self) -> int:
        """Promoted temporal jobs currently executing (time-series probe)."""
        return sum(1 for j in self._active if not j.is_spatial)

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
    def submit(self, job: Job) -> None:
        """Hand a job to the device.

        Spatial jobs start immediately if device memory allows, otherwise
        they wait in the pending queue.  Temporal jobs join the FIFO and
        start when the device empties.
        """
        self._advance()
        job.submitted_at = self.sim.now
        i = self._noise_at
        if i == NOISE_BLOCK:
            self._noise, i = self.rng.standard_normal(NOISE_BLOCK), 0
        self._noise_at = i + 1
        noise = 1.0 + self.exec_noise_sigma * self._noise.item(i)
        job.work = (
            job.solo_time * max(0.5, noise) * self.contention_factor
            * job.slowdown
        )
        if job.is_spatial:
            if job.mem_gb <= self.mem_free_gb and not self._pending_spatial:
                self._start(job)
            else:
                self._pending_spatial.append(job)
        else:
            self._temporal_q.append(job)
            self._maybe_promote()
        self._reschedule()

    # ------------------------------------------------------------------
    # Failure support
    # ------------------------------------------------------------------
    def evict_all(self) -> list[Job]:
        """Stop everything (node failure); return unfinished jobs.

        Jobs keep their batches (arrival times intact) so the framework can
        re-dispatch them elsewhere; execution progress is lost, as it is
        when a real node disappears.
        """
        self._advance()
        evicted = list(self._active) + list(self._pending_spatial) + list(
            self._temporal_q
        )
        for job in evicted:
            job.started_at = None
            job.work = 0.0
        self._active.clear()
        self._pending_spatial.clear()
        self._temporal_q.clear()
        self._mem_used = 0.0
        self.total_fbr = 0.0
        self._mark_busy_transition()
        if self._completion_ev is not None:
            self._completion_ev.cancel()
            self._completion_ev = None
        return evicted

    def evict_one(self) -> Optional[Job]:
        """OOM-kill one *running* job mid-batch (chaos injection).

        The youngest resident is the victim — the container that grew
        last is the one the kernel's OOM killer reaps.  Its progress is
        lost; the batch (arrivals intact) is returned for the framework
        to drop, requeue, or retry.  Returns ``None`` when idle.
        """
        self._advance()
        if not self._active:
            return None
        job = self._active.pop()
        self._mem_used -= job.mem_gb
        self.total_fbr = float(sum(j.fbr for j in self._active))
        job.started_at = None
        job.work = 0.0
        self._drain_pending()
        self._maybe_promote()
        self._mark_busy_transition()
        self._reschedule()
        return job

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _start(self, job: Job) -> None:
        now = job.started_at = self.sim.now
        self._active.append(job)
        self._mem_used += job.mem_gb
        self.total_fbr = float(sum(j.fbr for j in self._active))
        batch = job.batch
        batch.co_run, batch.start_fbr = len(self._active), self.total_fbr
        if self._busy_since is None:
            self._busy_since = now

    def _maybe_promote(self) -> None:
        """Move the temporal head onto the device if it is idle."""
        if not self._active and not self._pending_spatial and self._temporal_q:
            job = self._temporal_q.popleft()
            self._start(job)

    def _drain_pending(self) -> None:
        """Admit memory-pending spatial jobs that now fit (FIFO order)."""
        while (
            self._pending_spatial
            and self._pending_spatial[0].mem_gb <= self.mem_free_gb
        ):
            self._start(self._pending_spatial.popleft())

    def _rate(self) -> float:
        """Per-job progress rate of the current resident set."""
        if not self._active:
            return 1.0
        return 1.0 / self.interference.slowdown(self.total_fbr)

    def _advance(self) -> None:
        """Credit elapsed wall time to every resident job's remaining work."""
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._active:
            progressed = elapsed * self._rate()
            for job in self._active:
                job.work -= progressed
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
            self._completion_ev.cancel()
            self._completion_ev = None
        if not self._active:
            return
        min_work = min(j.work for j in self._active)
        delay = max(0.0, min_work) / self._rate()
        self._completion_ev = self.sim.schedule(delay, self._on_completion)

    def _on_completion(self) -> None:
        self._completion_ev = None
        self._advance()
        finished = [j for j in self._active if j.work <= _WORK_EPS]
        if not finished:
            # Numerical underrun: re-arm and let the set run to completion.
            self._reschedule()
            return
        for job in finished:
            self._active.remove(job)
            self._mem_used -= job.mem_gb
            # Before the completion hook: it may submit the next batch.
            self.total_fbr = float(sum(j.fbr for j in self._active))
            self._complete(job)
        self._drain_pending()
        self._maybe_promote()
        self._mark_busy_transition()
        self._reschedule()

    def _complete(self, job: Job) -> None:
        now = self.sim.now
        batch = job.batch
        batch.started_at = job.started_at
        assert job.started_at is not None
        wait = job.started_at - job.submitted_at
        exec_time = now - job.started_at
        # A straggler window stretches the job's nominal service time; the
        # stretch is charged to failure_wait, and only time beyond the
        # *inflated* solo counts as interference.
        inflated_solo = job.solo_time * job.slowdown
        interference_extra = max(0.0, exec_time - inflated_solo)
        if job.is_spatial:
            # A spatial job only ever waits because co-location pressure
            # exhausted device memory — that wait is interference-induced.
            interference_extra += wait
        else:
            batch.breakdown.queue_delay += wait
        batch.breakdown.exec_solo += min(exec_time, job.solo_time)
        batch.breakdown.failure_wait += max(
            0.0, min(exec_time, inflated_solo) - job.solo_time
        )
        batch.breakdown.interference_extra += interference_extra
        batch.completed_at = now
        batch.hardware_name = self.spec.name
        if job.on_complete is not None:
            job.on_complete(job)
