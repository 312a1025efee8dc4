"""Container pool: cold starts, warm reuse, keep-alive reaping.

Each worker node runs one pool per model.  A batch must hold a container for
the duration of its execution (the container is the process that launches
the CUDA/MPS job or the CPU batch).  The pool is where cold-start latency
and the autoscaler's policies (reactive, predictive, delayed termination —
Section IV-C) become visible to requests:

* ``ensure(n)`` — scale the pool towards ``n`` containers, spawning the
  missing ones; a spawn becomes *warm* after the node's cold-start delay.
* ``take_warm()`` — take a warm idle container now, if there is one (no
  wait, so nothing to attribute and no callback).
* ``request(cb)`` — acquire a warm container now, or join the waiter queue.
  Wait time is attributed to ``cold_start_wait`` when a cold-starting
  container ends up serving the waiter and to ``queue_delay`` when a busy
  container's release does.
* ``reap(keep_alive)`` — terminate containers idle longer than the
  keep-alive window (the paper's delayed termination, ~10 minutes).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.simulator.engine import Simulator

__all__ = ["ContainerPool", "AcquireTicket"]


@dataclass
class AcquireTicket:
    """Outcome of a container acquisition handed to the waiter's callback.

    Attributes
    ----------
    wait:
        Seconds spent waiting for the container.
    cold:
        ``True`` when the wait was for a cold start (vs. a busy container).
    """

    wait: float
    cold: bool


class ContainerPool:
    """Containers of one model on one node.

    Parameters
    ----------
    sim:
        Shared simulator.
    cold_start_seconds:
        Spawn-to-warm latency on this node.
    min_warm:
        Containers the reaper always keeps (the paper reuses one warm
        container for the whole temporal queue, so at least one).
    """

    def __init__(
        self,
        sim: Simulator,
        cold_start_seconds: float,
        min_warm: int = 1,
        max_total: int = 64,
    ) -> None:
        if cold_start_seconds < 0:
            raise ValueError("cold start cannot be negative")
        if max_total < 1:
            raise ValueError("max_total must be >= 1")
        self.sim = sim
        self.cold_start_seconds = float(cold_start_seconds)
        self.min_warm = int(min_warm)
        #: Hard cap on containers (a node's memory/PIDs are finite; it also
        #: stops waiter storms from spawning one container per queued
        #: batch during overload).
        self.max_total = int(max_total)

        #: idle containers, as (idle_since) timestamps (LIFO reuse keeps the
        #: warmest container hottest and the coldest reapable).
        self._idle: list[float] = []
        self._busy = 0
        self._spawning = 0
        self._waiters: deque[tuple[float, Callable[[AcquireTicket], None]]] = deque()

        self.cold_starts = 0
        #: Optional chaos hook: maps the base cold-start latency to the
        #: actual spawn delay for one cold start (failed starts retry and
        #: chain, inflating the delay).  ``None`` means healthy spawns.
        self.spawn_delay_fn: Optional[Callable[[float], float]] = None
        #: The run's observer bundle (set by the owning node on traced
        #: runs); ``None`` costs one ``is None`` branch per spawn.
        self.obs = None
        #: The owning node's id, the lease key of spawn facts.
        self.node_id = -1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_warm_idle(self) -> int:
        return len(self._idle)

    @property
    def n_busy(self) -> int:
        return self._busy

    @property
    def n_spawning(self) -> int:
        return self._spawning

    @property
    def n_total(self) -> int:
        """All containers, warm or on their way."""
        return len(self._idle) + self._busy + self._spawning

    @property
    def n_waiting(self) -> int:
        return len(self._waiters)

    # ------------------------------------------------------------------
    # Scaling
    # ------------------------------------------------------------------
    def ensure(self, n_target: int) -> int:
        """Spawn containers so the pool reaches ``n_target``; returns how
        many spawns were initiated."""
        target = min(int(n_target), self.max_total)
        missing = max(0, target - self.n_total)
        for _ in range(missing):
            self._spawn()
        return missing

    def add_warm(self, n: int) -> None:
        """Inject ``n`` already-warm containers (experiment warm starts).

        Real deployments begin with warmed pools; cold-start accounting
        should reflect scaling during the run, not the rig's boot."""
        self._idle.extend([self.sim.now] * int(n))

    def _spawn(self) -> None:
        self._spawning += 1
        self.cold_starts += 1
        delay = (
            self.spawn_delay_fn(self.cold_start_seconds)
            if self.spawn_delay_fn is not None
            else self.cold_start_seconds
        )
        obs = self.obs
        if obs is not None:
            now = self.sim.now
            obs.container_spawned(self.node_id, now, now + delay)
        self.sim.schedule(delay, self._on_warm)

    def _on_warm(self) -> None:
        self._spawning -= 1
        self._serve_or_idle(cold=True)

    # ------------------------------------------------------------------
    # Acquisition / release
    # ------------------------------------------------------------------
    def take_warm(self) -> bool:
        """Take a warm idle container now, if there is one.

        Returns whether a container was taken; it is then *busy* until
        :meth:`release` is called.  The dispatch hot path takes this
        route and falls back to :meth:`request` only when it must wait.
        """
        if self._idle:
            self._idle.pop()
            self._busy += 1
            return True
        return False

    def request(self, callback: Callable[[AcquireTicket], None]) -> None:
        """Acquire a container, immediately or after a wait.

        ``callback`` receives an :class:`AcquireTicket`; the container is
        then *busy* until :meth:`release` is called.
        """
        if self.take_warm():
            callback(AcquireTicket(wait=0.0, cold=False))
            return
        self._waiters.append((self.sim.now, callback))
        # Reactive backstop: if nothing is coming, spawn for this waiter
        # (bounded by the pool cap).
        if (
            self._spawning + len(self._idle) < len(self._waiters)
            and self.n_total < self.max_total
        ):
            self._spawn()

    def release(self) -> None:
        """Return a busy container to the pool (serves waiters first)."""
        if self._busy <= 0:
            raise RuntimeError("release() without a matching acquisition")
        self._busy -= 1
        self._serve_or_idle(cold=False)

    def _serve_or_idle(self, cold: bool) -> None:
        if self._waiters:
            t0, callback = self._waiters.popleft()
            self._busy += 1
            callback(AcquireTicket(wait=self.sim.now - t0, cold=cold))
        else:
            self._idle.append(self.sim.now)

    # ------------------------------------------------------------------
    # Delayed termination (Section IV-C)
    # ------------------------------------------------------------------
    def reap(self, keep_alive_seconds: float) -> int:
        """Terminate containers idle for longer than ``keep_alive_seconds``,
        never dropping below ``min_warm`` total.  Returns the count reaped.
        """
        now = self.sim.now
        reaped = 0
        # Oldest idle timestamps sit at the front of the list.
        while (
            self._idle
            and self.n_total > self.min_warm
            and now - self._idle[0] > keep_alive_seconds
        ):
            self._idle.pop(0)
            reaped += 1
        return reaped

    def terminate_all(self) -> None:
        """Drop every idle/spawning container (node released or failed).

        Busy containers are left in place: their in-flight work finishes at
        the device layer and their matching :meth:`release` must still
        balance.  Waiters are dropped — the framework re-dispatches the
        affected batches itself.
        """
        self._idle.clear()
        self._spawning = 0
        self._waiters.clear()
