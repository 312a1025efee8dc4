"""CPU device model: parallel batched lanes with FIFO overflow.

CPU nodes serve requests through the ML framework's "native batched CPU
execution mode" (Section IV-D): each container executes one batch at a time,
and a node sustains ``cpu_lanes`` concurrent containers before batches have
to wait.  There is no MPS analogue: the :class:`ShareMode` of a job is
ignored and everything is FIFO-fed into free lanes.

Host contention (Table III's mixed-workload study) is modelled with a
multiplicative ``contention_factor`` on service times, settable at run time
by the SeBS co-location injector.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.hardware.catalog import HardwareSpec
from repro.simulator.engine import Simulator
from repro.simulator.job import NOISE_BLOCK, Job

__all__ = ["CPUDevice"]


class CPUDevice:
    """A CPU-only worker node's compute, as ``cpu_lanes`` parallel servers.

    Parameters
    ----------
    sim:
        Shared discrete-event simulator.
    spec:
        Hardware spec; ``spec.cpu_lanes`` sets the parallel batch capacity.
    rng:
        Execution-noise source.
    exec_noise_sigma:
        Multiplicative noise on per-batch service times.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: HardwareSpec,
        rng: Optional[np.random.Generator] = None,
        exec_noise_sigma: float = 0.03,
    ) -> None:
        if spec.is_gpu:
            raise ValueError(f"{spec.name} is a GPU node; use GPUDevice")
        self.sim = sim
        self.spec = spec
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.exec_noise_sigma = float(exec_noise_sigma)
        #: A block of ``rng``'s standard normals; ``_noise_at`` is the next.
        self._noise, self._noise_at = None, NOISE_BLOCK

        self._queue: deque[Job] = deque()
        self._running: list[Job] = []
        #: Service-time inflation from co-located host workloads (>= 1).
        self.contention_factor = 1.0

        self.busy_seconds = 0.0
        self._busy_since: Optional[float] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_active(self) -> int:
        return len(self._running)

    def queued_requests(self) -> int:
        """Requests sitting in the lane queue (``curr_queue_info``)."""
        queue = self._queue
        return sum(j.batch.size for j in queue) if queue else 0

    def evict_queued(self) -> list[Job]:
        """Remove not-yet-started jobs (hardware switch re-routes them)."""
        evicted = list(self._queue)
        self._queue.clear()
        return evicted

    @property
    def idle(self) -> bool:
        return not self._running and not self._queue

    @property
    def co_run_level(self) -> int:
        """Batches executing concurrently across the CPU lanes."""
        return len(self._running)

    @property
    def occupancy(self) -> float:
        """Instantaneous fraction of lanes busy, in ``[0, 1]``."""
        lanes = max(1, self.spec.cpu_lanes)
        return min(1.0, len(self._running) / lanes)

    # ------------------------------------------------------------------
    # Submission / execution
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Start a batch on a free lane, or queue it until one frees up.

        A job that finds the FIFO empty and a lane free starts at once.
        Otherwise it joins the FIFO, whose head takes any free lane: a
        lane can be free with jobs queued while a completion hook runs,
        and those jobs go first."""
        now = job.submitted_at = self.sim.now
        if not self._queue and len(self._running) < self.spec.cpu_lanes:
            self._start(job, now)
        else:
            self._queue.append(job)
            self._dispatch()

    def evict_all(self) -> list[Job]:
        """Node failure: abandon everything, returning unfinished jobs."""
        evicted = list(self._running) + list(self._queue)
        for job in evicted:
            job.started_at = None
        self._running.clear()
        self._queue.clear()
        self._mark_busy_transition()
        return evicted

    def evict_one(self) -> Optional[Job]:
        """OOM-kill the youngest running batch (chaos injection).

        The lane's already-scheduled ``_finish`` fires into its
        not-in-running guard and is ignored.  Returns ``None`` when no
        lane is busy.
        """
        if not self._running:
            return None
        job = self._running[-1]
        self._running.remove(job)
        job.started_at = None
        self._mark_busy_transition()
        self._dispatch()
        return job

    def _dispatch(self) -> None:
        while self._queue and len(self._running) < self.spec.cpu_lanes:
            self._start(self._queue.popleft(), self.sim.now)

    def _start(self, job: Job, now: float) -> None:
        job.started_at = now
        i = self._noise_at
        if i == NOISE_BLOCK:
            self._noise, i = self.rng.standard_normal(NOISE_BLOCK), 0
        self._noise_at = i + 1
        noise = 1.0 + self.exec_noise_sigma * self._noise.item(i)
        service = (
            job.solo_time * max(0.5, noise) * self.contention_factor
            * job.slowdown
        )
        self._running.append(job)
        batch = job.batch
        batch.co_run, batch.start_fbr = len(self._running), 0.0
        if self._busy_since is None:
            self._busy_since = now
        self.sim.schedule(service, lambda j=job: self._finish(j))

    def _finish(self, job: Job) -> None:
        try:
            self._running.remove(job)
        except ValueError:
            return  # evicted by a failure while in flight
        now = self.sim.now
        batch = job.batch
        assert job.started_at is not None
        batch.started_at = job.started_at
        batch.breakdown.queue_delay += job.started_at - job.submitted_at
        exec_time = now - job.started_at
        inflated_solo = job.solo_time * job.slowdown
        batch.breakdown.exec_solo += min(exec_time, job.solo_time)
        # Straggler stretch is failure time, not interference.
        batch.breakdown.failure_wait += max(
            0.0, min(exec_time, inflated_solo) - job.solo_time
        )
        # Contention inflation is the CPU analogue of interference.
        batch.breakdown.interference_extra += max(0.0, exec_time - inflated_solo)
        batch.completed_at = now
        batch.hardware_name = self.spec.name
        if job.on_complete is not None:
            job.on_complete(job)
        if not self._running and self._busy_since is not None:
            self.busy_seconds += now - self._busy_since
            self._busy_since = None
        if self._queue:
            self._dispatch()

    def _mark_busy_transition(self) -> None:
        now = self.sim.now
        if self._running and self._busy_since is None:
            self._busy_since = now
        elif not self._running and self._busy_since is not None:
            self.busy_seconds += now - self._busy_since
            self._busy_since = None
