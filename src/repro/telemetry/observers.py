"""The per-run observer bundle: the one hook surface of every pillar.

The simulator, the resilience layer and the framework report *facts* —
a node was leased, a container started spawning, a retry was abandoned
— to a single ``obs`` attribute per component.  On
untraced runs ``obs`` is ``None``, so each hook site costs one attribute
load and one ``is None`` branch, and the run never calls into this
module (gated by ``sys.setprofile`` call counting in
``benchmarks/test_bench_costmeter.py`` and ``test_bench_reqtrace.py``).
On traced runs it holds a :class:`RunObservers`, which fans each fact
out to whichever pillars the run enabled.

Completed batches are not a fact here: the run appends each one to its
:class:`~repro.simulator.metrics.BatchLog` once, and every pillar reads
that log when it needs it — the SLO monitor per evaluation, the cost
meter and request tracer at finalize, the batch spans and latency
histogram at export.

Adding a pillar means adding a field here and a line to each fact
method it observes; no component outside ``telemetry/`` changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.framework.request import Batch
    from repro.simulator.cluster import LeaseRecord, NodeInstance
    from repro.simulator.job import Job
    from repro.telemetry.costmeter import CostBudgetMonitor, CostMeter
    from repro.telemetry.reqtrace import RequestTracer
    from repro.telemetry.slo_monitor import SLOMonitor
    from repro.telemetry.timeseries import StateSampler
    from repro.telemetry.tracer import Tracer

__all__ = ["RunObservers"]


class RunObservers:
    """The telemetry pillars of one traced run, one method per fact.

    A bundle exists only when the run's :class:`Tracer` is enabled, so
    ``tracer`` is always present; the other pillars are set by the
    run's telemetry setup when enabled, and a fact skips the pillars
    that are ``None``.  In a shared cluster the first traced lane's
    bundle is the cluster's: node, container and execution facts flow
    through it, while each lane reports its own batch, retry and
    breaker facts through its own bundle (which shares the cluster
    bundle's meter and request tracer, each reading every lane's batch
    log).
    """

    __slots__ = ("tracer", "costmeter", "reqtrace", "slo_monitor",
                 "cost_monitor", "sampler")

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer
        self.costmeter: Optional["CostMeter"] = None
        self.reqtrace: Optional["RequestTracer"] = None
        self.slo_monitor: Optional["SLOMonitor"] = None
        self.cost_monitor: Optional["CostBudgetMonitor"] = None
        self.sampler: Optional["StateSampler"] = None

    # ------------------------------------------------------------------
    # Cluster, containers, devices
    # ------------------------------------------------------------------
    def node_acquired(self, node: "NodeInstance", now: float,
                      ready_at: float, instant: bool) -> None:
        spec = node.spec
        if self.costmeter is not None:
            self.costmeter.on_acquire(node.node_id, spec, now, ready_at)
        if self.reqtrace is not None:
            self.reqtrace.event(
                "node.acquire", now, node_id=node.node_id, spec=spec.name,
                ready_at=float(ready_at), instant=bool(instant),
            )
        self.tracer.event(
            "node.acquire", now, cat="lease", track="cluster",
            hardware=spec.name, node_id=node.node_id, instant=bool(instant),
            provision_seconds=spec.provision_seconds,
        )

    def node_released(self, node: "NodeInstance", lease: "LeaseRecord",
                      now: float) -> None:
        """Emits the ``node.release`` event and the lease span."""
        if self.costmeter is not None:
            self.costmeter.on_release(node.node_id, now)
        if self.reqtrace is not None:
            self.reqtrace.event("node.release", now, node_id=node.node_id)
        name = node.spec.name
        self.tracer.event(
            "node.release", now, cat="lease", track="cluster",
            hardware=name, node_id=node.node_id,
            lease_seconds=lease.duration(now), lease_cost=lease.cost(now),
        )
        self._lease_span(node.node_id, lease, now)

    def _lease_span(self, node_id: int, lease: "LeaseRecord", now: float,
                    **attrs: Any) -> None:
        name = lease.spec.name
        self.tracer.span(
            f"lease:{name}", lease.start, now, cat="lease", track="leases",
            hardware=name, node_id=node_id, cost=lease.cost(now), **attrs,
        )

    def container_spawned(self, node_id: int, t0: float, t1: float) -> None:
        if self.costmeter is not None:
            self.costmeter.on_spawn(node_id, t0, t1)

    def execution_started(self, device: Any, job: "Job", now: float) -> None:
        """``device`` has just added ``job`` to its running set."""
        if self.reqtrace is not None:
            self.reqtrace.on_execute_start(
                job.batch.batch_id, now, device.spec.name,
                device.co_run_level, getattr(device, "total_fbr", 0.0),
            )

    # ------------------------------------------------------------------
    # Framework: losses, retries, breakers
    # ------------------------------------------------------------------
    def shed(self, now: float, batch_id: Optional[int], n: int,
             reason: str) -> None:
        """``n`` requests were shed; ``batch_id`` is ``None`` for
        requests shed from a window before they formed a batch."""
        if self.reqtrace is not None:
            self.reqtrace.event("shed", now, batch_id=batch_id, n=int(n),
                                reason=reason)
        batch_attr = {} if batch_id is None else {"batch_id": batch_id}
        self.tracer.event("retry.shed", now, cat="resilience", **batch_attr,
                          n=n, reason=reason)

    def dropped(self, batch_id: int, now: float, n: int) -> None:
        if self.reqtrace is not None:
            self.reqtrace.event("drop", now, batch_id=batch_id, n=int(n))

    def retry_scheduled(self, batch: "Batch", now: float, delay: float,
                        deadline: float) -> None:
        self.tracer.event(
            "retry.schedule", now, cat="resilience", batch_id=batch.batch_id,
            attempt=batch.retries + 1, delay=delay, deadline=deadline,
        )

    def retry_dispatched(self, batch: "Batch", now: float, deadline: float,
                         hardware: str) -> None:
        self.tracer.event(
            "retry.dispatch", now, cat="resilience", batch_id=batch.batch_id,
            attempt=batch.retries, deadline=deadline, hardware=hardware,
        )
        if self.reqtrace is not None:
            self.reqtrace.event("retry.dispatch", now, batch_id=batch.batch_id,
                                attempt=batch.retries, hardware=hardware)

    def retry_abandoned(self, batch: "Batch", now: float,
                        deadline: float) -> None:
        self.tracer.event(
            "retry.abandoned", now, cat="resilience", batch_id=batch.batch_id,
            attempt=batch.retries + 1, deadline=deadline,
        )
        if self.reqtrace is not None:
            self.reqtrace.event("retry.abandoned", now,
                                batch_id=batch.batch_id,
                                reason="deadline_unreachable")

    def breaker_transition(self, breaker: Any, now: float) -> None:
        """``breaker`` (a :class:`~repro.core.resilience.CircuitBreaker`)
        has just entered ``breaker.state``."""
        if self.reqtrace is not None:
            self.reqtrace.event("breaker", now, target=breaker.target,
                                state=breaker.state)
        self.tracer.event(
            f"breaker.{breaker.state}", now, cat="resilience",
            target=breaker.target,
            consecutive_failures=breaker.consecutive_failures,
        )

    # ------------------------------------------------------------------
    # Run end
    # ------------------------------------------------------------------
    def run_finalized(self, now: float, owned: list, meta: dict) -> tuple:
        """Close the pillars over the lane's own ``(node, lease)`` pairs
        and merge ``meta`` (request counts, cost, switches) into the
        tracer's run metadata.  Returns ``(cost breakdown or None,
        request trace or None, budget alerts emitted)``."""
        breakdown = data = None
        if self.costmeter is not None:
            breakdown = self.costmeter.summarize(
                now, node_ids={node.node_id for node, _ in owned}
            )
        if self.reqtrace is not None:
            self.reqtrace.on_run_end(now)  # idempotent with the engine hook
            data = self.reqtrace.data()
        mon = self.cost_monitor
        alerts = mon.alerts_emitted if mon is not None else 0
        # Leases still open at run end never saw a release; close their
        # spans here so the trace timeline covers every node.
        for node, lease in owned:
            if lease.end is None:
                self._lease_span(node.node_id, lease, now, open_at_end=True)
        self.tracer.meta.update(meta)
        if breakdown is not None:
            self.tracer.meta["cost_buckets"] = dict(breakdown.bucket_dollars)
        return breakdown, data, alerts
