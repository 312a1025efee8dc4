"""The per-run observer bundle: the one hook surface of every pillar.

The cluster, the resilience layer and the framework report *facts* —
a node was leased, a container started spawning, a retry was abandoned
— to a single ``obs`` attribute per component.  On
untraced runs ``obs`` is ``None``, so each hook site costs one attribute
load and one ``is None`` branch, and the run never calls into this
module (gated by ``sys.setprofile`` call counting in
``benchmarks/test_bench_costmeter.py`` and ``test_bench_reqtrace.py``).
On traced runs it holds a :class:`RunObservers`, which fans each fact
out to whichever pillars the run enabled.

Completed batches are not a fact here: the run appends each one to its
:class:`~repro.simulator.metrics.BatchLog` once, with the device's
co-run level and FBR at the batch's last start, and every pillar reads
that log when it needs it — the SLO monitor per evaluation, the cost
meter and request tracer at finalize, the batch spans and the latency
histogram at export.  The devices hold no ``obs``.

:meth:`RunObservers.for_run` is the one place that wires a traced run:
it decides which pillars the run has, which state the time-series
sampler reads and on what clock the monitors tick.  Every pillar
belongs to one run, also when several runs share a cluster: each node
reports to the run that leased it.  Adding a pillar means adding a
field here, a line to ``for_run`` that builds it and a line to each
fact method it observes; no component outside ``telemetry/`` changes.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import TYPE_CHECKING, Any, Optional

from repro.telemetry.costmeter import CostBudgetMonitor, CostMeter
from repro.telemetry.reqtrace import RequestTracer
from repro.telemetry.slo_monitor import SLOMonitor
from repro.telemetry.timeseries import StateSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.framework.request import Batch
    from repro.framework.system import ServerlessRun
    from repro.simulator.cluster import LeaseRecord, NodeInstance
    from repro.telemetry.tracer import Tracer

__all__ = ["RunObservers", "TELEMETRY_SAMPLE_INTERVAL_SECONDS"]

#: Sim-time cadence of the SLO and cost budget monitors on traced runs.
TELEMETRY_SAMPLE_INTERVAL_SECONDS = 1.0


class RunObservers:
    """The telemetry pillars of one traced run, one method per fact.

    A bundle exists only when the run's :class:`Tracer` is enabled, so
    ``tracer`` is always present; the other pillars are set by
    :meth:`for_run` when enabled, and a fact skips the pillars that are
    ``None``.
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

    @classmethod
    def for_run(cls, run: "ServerlessRun") -> "RunObservers":
        """Build the traced ``run``'s bundle and start its clocks.

        The run calls this before its initial acquire and hands the
        bundle to every acquire, so it sees every lease the run makes.
        Every pillar reads the run's batch log rather than hearing of
        each batch.  The time-series sampler starts before the monitor
        clock, which fixes the order of their events at a shared
        instant.
        """
        cfg, tracer, sim, slo = run.config, run.tracer, run.sim, run.slo
        tracer.meta.update(
            {
                "scheme": run.policy.name,
                "model": run.model.name,
                "slo_seconds": slo.target_seconds,
                "trace_duration": run.trace.duration,
                "n_requests": run.trace.n_requests,
                "seed": cfg.seed,
            }
        )
        log = run.metrics.log
        tracer.attach(log)
        obs = cls(tracer)
        if run.resilience is not None:
            run.resilience.obs = obs
        if cfg.slo_monitor_window_seconds > 0:
            obs.slo_monitor = SLOMonitor(
                slo_seconds=slo.target_seconds,
                tracer=tracer,
                window_seconds=cfg.slo_monitor_window_seconds,
                compliance_goal=slo.compliance_goal,
            )
            obs.slo_monitor.attach(log)
        if cfg.cost_meter:
            obs.costmeter = CostMeter()
            obs.costmeter.attach(log)
            obs.cost_monitor = CostBudgetMonitor(
                obs.costmeter,
                tracer=tracer,
                budget_dollars=cfg.cost_budget_dollars,
                horizon_seconds=run.horizon,
            )
        if cfg.reqtrace:
            rt = obs.reqtrace = RequestTracer(sample=cfg.reqtrace_sample,
                                              seed=cfg.seed)
            rt.register_model(run.model.name, slo.target_seconds)
            rt.attach(log)
        if cfg.timeseries_interval_seconds > 0:
            obs.sampler = tracer.timeseries = _start_sampler(run, obs)
        monitors = [
            m for m in (obs.slo_monitor, obs.cost_monitor) if m is not None
        ]

        def tick() -> None:
            now = sim.now
            for monitor in monitors:
                monitor.sample(now)

        sim.every(TELEMETRY_SAMPLE_INTERVAL_SECONDS, tick, until=run.horizon,
                  priority=90)
        return obs

    # ------------------------------------------------------------------
    # Cluster and containers
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
        """Close the pillars over the run's ``(node, lease)`` pairs
        and merge ``meta`` (request counts, cost, switches) into the
        tracer's run metadata.  Returns ``(cost breakdown or None,
        request trace or None, budget alerts emitted)``."""
        breakdown = data = None
        if self.costmeter is not None:
            breakdown = self.costmeter.summarize(now)
        if self.reqtrace is not None:
            self.reqtrace.on_run_end(now)
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


def _start_sampler(run: "ServerlessRun", obs: RunObservers) -> StateSampler:
    """Build the run's time-series :class:`StateSampler`, register its
    probes and start it on the run's clock.

    Columns are fixed at start: the per-spec node columns cover the
    whole catalog (NaN while a spec holds no live lease), so two runs
    over the same catalog export alignable bundles regardless of which
    hardware their policies visited.
    """
    cfg, sim, model = run.config, run.sim, run.model
    catalog = run.profiles.catalog
    hardware_codes = {spec.name: i for i, spec in enumerate(catalog)}
    sampler = StateSampler(
        cfg.timeseries_interval_seconds,
        meta={
            "scheme": run.policy.name,
            "model": model.name,
            "slo_seconds": run.slo.target_seconds,
            "trace_duration": run.trace.duration,
            "seed": cfg.seed,
            "hardware_codes": hardware_codes,
            "hardware_kinds": {s.name: s.kind for s in catalog},
        },
    )
    sampler.observers.extend(run.tracer.timeseries_observers)

    # Each reader below fills a group of columns from one read of the
    # state they share, so a tick reads the serving node, the lane's
    # live nodes and the SLO windows once each.
    now = lambda: sim.now
    # Offered vs. predicted rate (the Fig 9/11 x-axis pair).
    tracker, autoscaler = run.tracker, run.autoscaler
    predictor = getattr(run.policy, "predictor", None) or autoscaler.predictor
    sampler.probes(
        ("rate.offered", "rate.predicted"),
        lambda: (
            tracker.current_rate,
            predictor.predict(now(), tracker.window_seconds),
        ),
    )

    # Which hardware is serving (numeric code; NaN during failover),
    # the backlog shape, the serving node's container pool and its
    # device's in-flight jobs (MPS co-runners vs. promoted temporal).
    def serving() -> tuple:
        pending = len(run._pending_windows)
        node = run._current
        if node is None or not node.available:
            return (math.nan, math.nan, pending) + (math.nan,) * 8
        device, pool = node.device, node.pool(model.name)
        return (
            hardware_codes[node.spec.name], device.queued_requests(),
            pending, pool.n_warm_idle, pool.n_spawning, pool.n_busy,
            pool.n_waiting, getattr(device, "n_active_spatial", 0),
            getattr(device, "n_active_temporal", device.n_active),
            getattr(device, "total_fbr", 0.0),
            getattr(device, "mem_used_gb", 0.0),
        )

    sampler.probes(
        ("hw.selected", "queue.device", "queue.pending_windows",
         "pool.warm_idle", "pool.spawning", "pool.busy", "pool.waiting",
         "jobs.active_spatial", "jobs.active_temporal", "gpu.total_fbr",
         "gpu.mem_used_gb"),
        serving,
    )
    sampler.probes(
        ("autoscaler.predicted_rps", "autoscaler.pool_target"),
        lambda: (autoscaler.last_prediction, autoscaler.last_pool_target),
    )
    # The lane's nodes, read once per tick: cold starts so far, and
    # per-type occupancy / MPS co-run level across live leases (NaN
    # for a type with none).  A released node's pools are terminated
    # and get no more work, so its cold starts are settled once and
    # only nodes still leased are read again.
    column_of = {spec.name: 1 + 2 * i for i, spec in enumerate(catalog)}
    unsettled: dict[int, NodeInstance] = {}
    settled = seen = 0

    def lane_nodes() -> list[float]:
        nonlocal settled, seen
        owned = run._owned
        if len(owned) > seen:
            unsettled.update(islice(owned.items(), seen, None))
            seen = len(owned)
        leased = run.cluster._active_leases
        out = [math.nan] * (1 + 2 * len(column_of))
        out[0] = settled
        live: dict[str, list[NodeInstance]] = {}
        released = []
        for node_id, node in unsettled.items():
            out[0] += node.cold_starts
            if node_id in leased:
                live.setdefault(node.spec.name, []).append(node)
            else:
                released.append(node_id)
        for node_id in released:
            settled += unsettled.pop(node_id).cold_starts
        for name, nodes in live.items():
            j = column_of.get(name)
            if j is None:
                continue
            occupancy = [node.occupancy for node in nodes]
            co_run = [node.co_run_level for node in nodes]
            out[j] = float(sum(occupancy)) / len(occupancy)
            out[j + 1] = float(sum(co_run)) / len(co_run)
        return out

    sampler.probes(
        ("cold_starts.total",) + tuple(
            f"node.{name}.{attr}" for name in column_of
            for attr in ("occupancy", "co_run")
        ),
        lane_nodes,
    )

    # Resilience layer (only when configured).
    res = run.resilience
    if res is not None:
        def resilience() -> tuple:
            counts = res.breaker_state_counts()
            return (counts["open"], counts["half_open"],
                    res.retries_scheduled, res.retries_abandoned,
                    res.requests_shed, run.requests_dropped)

        sampler.probes(
            ("breaker.open", "breaker.half_open",
             "resilience.retries_scheduled", "resilience.retries_abandoned",
             "resilience.requests_shed", "resilience.requests_dropped"),
            resilience,
        )

    # Live SLO burn rate and attainment (worst window) when the monitor
    # exists.
    mon = obs.slo_monitor
    if mon is not None:
        sampler.probes(("slo.burn_rate", "slo.attainment"),
                       lambda: mon.worst(now()))

    # Cumulative dollars + $/hour burn rate (cost pillar).
    meter, budget_mon = obs.costmeter, obs.cost_monitor
    if meter is not None:
        sampler.probes(
            ("cost.cumulative_dollars", "cost.burn_rate_per_hour",
             "cost.projected_dollars"),
            lambda: (meter.spent(now()), budget_mon.burn_rate_per_hour,
                     budget_mon.projected_dollars),
        )

    sampler.start(sim, run.horizon, priority=90)
    return sampler
