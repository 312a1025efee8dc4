"""CPU device model: parallel batched lanes with FIFO overflow.

CPU nodes serve requests through the ML framework's "native batched CPU
execution mode" (Section IV-D): each container executes one batch at a time,
and a node sustains ``cpu_lanes`` concurrent containers before batches have
to wait.  There is no MPS analogue: the :class:`ShareMode` of a job is
ignored and everything is FIFO-fed into free lanes.

Host contention (Table III's mixed-workload study) is modelled with a
multiplicative ``contention_factor`` on service times, settable at run time
by the SeBS co-location injector.

The device runs :class:`~repro.framework.request.Batch` objects whose
execution parameters the framework set (:meth:`Batch.set_execution`).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.framework.request import Batch
from repro.hardware.catalog import HardwareSpec
from repro.simulator.engine import Simulator

__all__ = ["CPUDevice", "NOISE_BLOCK"]

#: Devices draw execution noise this many values at a time (the same
#: values as one ``standard_normal()`` per batch, in order).
NOISE_BLOCK = 64


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

        self._queue: deque[Batch] = deque()
        self._running: list[Batch] = []
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
        return sum(b.arrivals.size for b in queue) if queue else 0

    def evict_queued(self) -> list[Batch]:
        """Remove not-yet-started batches (hardware switch re-routes them)."""
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
    def submit(self, batch: Batch) -> None:
        """Start a batch on a free lane, or queue it until one frees up.

        A batch that finds the FIFO empty and a lane free starts at once.
        Otherwise it joins the FIFO, whose head takes any free lane: a
        lane can be free with batches queued while a completion hook
        runs, and those batches go first."""
        now = batch.submitted_at = self.sim.now
        if not self._queue and len(self._running) < self.spec.cpu_lanes:
            self._start(batch, now)
        else:
            self._queue.append(batch)
            self._dispatch()

    def evict_all(self) -> list[Batch]:
        """Node failure: abandon everything, returning unfinished batches."""
        evicted = list(self._running) + list(self._queue)
        for batch in evicted:
            batch.started_at = None
        self._running.clear()
        self._queue.clear()
        self._mark_busy_transition()
        return evicted

    def evict_one(self) -> Optional[Batch]:
        """OOM-kill the youngest running batch (chaos injection).

        The lane's already-scheduled ``_finish`` belongs to an attempt
        that is no longer current and is ignored, also when the batch
        runs again by then.  Returns ``None`` when no lane is busy.
        """
        if not self._running:
            return None
        batch = self._running.pop()
        batch.started_at = None
        self._mark_busy_transition()
        self._dispatch()
        return batch

    def _dispatch(self) -> None:
        while self._queue and len(self._running) < self.spec.cpu_lanes:
            self._start(self._queue.popleft(), self.sim.now)

    def _start(self, batch: Batch, now: float) -> None:
        batch.started_at = now
        i = self._noise_at
        if i == NOISE_BLOCK:
            self._noise, i = self.rng.standard_normal(NOISE_BLOCK), 0
        self._noise_at = i + 1
        noise = 1.0 + self.exec_noise_sigma * self._noise.item(i)
        service = (
            batch.solo_time * max(0.5, noise) * self.contention_factor
            * batch.slowdown
        )
        self._running.append(batch)
        batch.co_run, batch.start_fbr = len(self._running), 0.0
        if self._busy_since is None:
            self._busy_since = now
        self.sim.schedule(service, lambda b=batch, s=now: self._finish(b, s))

    def _finish(self, batch: Batch, started: float) -> None:
        if batch.started_at != started:
            # The attempt that started at ``started`` was evicted (node
            # failure, OOM kill); the batch may be running again since.
            return
        self._running.remove(batch)
        now = self.sim.now
        batch.queue_delay += started - batch.submitted_at
        exec_time = now - started
        solo = batch.solo_time
        inflated_solo = solo * batch.slowdown
        batch.exec_solo += min(exec_time, solo)
        # Straggler stretch is failure time, not interference.
        batch.failure_wait += max(0.0, min(exec_time, inflated_solo) - solo)
        # Contention inflation is the CPU analogue of interference.
        batch.interference_extra += max(0.0, exec_time - inflated_solo)
        batch.completed_at = now
        batch.hardware_name = self.spec.name
        if batch.on_complete is not None:
            batch.on_complete(batch)
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
