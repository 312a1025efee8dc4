"""The serverless framework: gateway, dispatcher, and run orchestration.

:class:`ServerlessRun` is Figure 2 in executable form.  It wires one
workload + trace + policy into the simulated cluster:

* the **gateway/batcher** groups trace arrivals into dispatch windows
  (Section IV-B);
* the **dispatcher** routes each window to the node chosen by the policy's
  hardware selection, after the policy's Job Distribution carved it into
  spatial/temporal sub-batches (Sections IV-A/IV-D);
* the **autoscaler** manages container pools around the dispatches
  (Section IV-C);
* a **monitor loop** samples request rates, feeds the policy's predictor,
  and executes background hardware reconfigurations (Algorithm 1's
  ``reconfigure_HW``: the new node is procured and pre-warmed while the old
  one keeps serving, then traffic is rerouted and the old lease released);
* an optional **chaos engine** (:mod:`repro.simulator.chaos`) injects
  faults — the Fig 13b periodic outage as well as composable stochastic
  fault specs — and optional **SeBS co-location** reproduces the
  co-location study;
* an optional **resilience layer** (:mod:`repro.core.resilience`) adds
  deadline-aware retries, per-target circuit breakers, and graceful
  degradation on top of the legacy requeue-on-failover path.

Every scheme runs through this same machinery; only the policy differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.baselines.base import Policy
from repro.core.autoscaler import Autoscaler, containers_for_split
from repro.framework.batching import WindowTable
from repro.core.predictor import EWMAPredictor, RateTracker
from repro.framework.request import Batch, BatchBreakdown, ShareMode
from repro.framework.slo import SLO
from repro.hardware.catalog import HardwareSpec
from repro.hardware.profiles import ProfileService
from repro.simulator.cluster import Cluster, NodeInstance
from repro.simulator.containers import ContainerPool
from repro.simulator.engine import Simulator
from repro.simulator.job import Job
from repro.simulator.metrics import MetricsCollector
from repro.simulator.power import bill
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.workloads.models import ModelSpec
from repro.workloads.traces import Trace

# The optional layers (chaos, resilience, telemetry pillars, SeBS
# co-location) are imported where a run first uses them, so a run that
# does not use one never loads it.
if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.resilience import ResilienceConfig, ResilienceController
    from repro.simulator.chaos import ChaosEngine, ChaosSpec
    from repro.simulator.containers import AcquireTicket
    from repro.telemetry.costmeter import CostBreakdown
    from repro.telemetry.observers import RunObservers
    from repro.telemetry.reqtrace import RequestTraceData
    from repro.workloads.sebs import SebsColocator

__all__ = ["RunConfig", "RunResult", "ServerlessRun"]

#: Gateway batching window.
BATCH_WINDOW_SECONDS = 0.075
#: Hardware-selection / rate-sampling cadence (Algorithm 1's ``W``).
MONITOR_INTERVAL_SECONDS = 0.5
#: Predictive-scaling cadence (~10 s).
AUTOSCALE_INTERVAL_SECONDS = 10.0
#: Extra simulated time after the trace ends so in-flight work can
#: finish.
DRAIN_GRACE_SECONDS = 30.0


@dataclass(frozen=True)
class RunConfig:
    """Framework knobs (paper defaults).

    Attributes
    ----------
    keep_alive_seconds:
        Delayed-termination window (~10 min).
    warm_start:
        Start with the policy's initial node leased and containers warm.
    chaos:
        Optional fault specification: the Fig 13b periodic node outage
        (``PeriodicOutage``), stochastic crashes, slowdowns, cold-start
        failures, OOM kills, MPS faults.
    resilience:
        Optional recovery policy (deadline-aware retry, per-target
        circuit breakers, graceful degradation).  ``None`` keeps the
        legacy requeue-on-failover behaviour unchanged.
    sebs_colocation:
        Inject SeBS background CPU load (Table III).
    sebs_invocation_rps:
        Aggregate rate of the co-located functions.
    timeseries_interval_seconds:
        Cadence of the time-series :class:`~repro.telemetry.timeseries.
        StateSampler`, the only periodic record of run state (rates,
        serving hardware, queues, pools, in-flight jobs, per-node
        occupancy, breaker states).  ``<= 0`` disables it, so a traced
        run then records no state series at all.  The sampler only
        exists when a tracer is enabled; an untraced run constructs none
        and schedules no events.
    slo_monitor_window_seconds:
        Sliding-window width of the live SLO burn-rate monitor
        (:class:`~repro.telemetry.slo_monitor.SLOMonitor`).  ``<= 0``
        disables the monitor entirely.  Like the sampler, the monitor
        only exists when a tracer is enabled.
    cost_meter:
        Itemize lease dollars into busy/cold-start/idle/reconfiguration
        buckets with per-request pro-rata attribution
        (:class:`~repro.telemetry.costmeter.CostMeter`).  Like the
        sampler, the meter only exists when a tracer is enabled; an
        untraced run pays one ``is None`` branch per lease transition.
    cost_budget_dollars:
        Optional dollar budget for the run.  When the windowed $/hour
        burn rate projects the end-of-run spend past it, the
        :class:`~repro.telemetry.costmeter.CostBudgetMonitor` emits an
        edge-triggered ``budget_alert`` event.  ``None`` disables
        alerting (burn rate is still sampled).
    reqtrace:
        Record a per-request causal trace
        (:class:`~repro.telemetry.reqtrace.RequestTracer`): phase
        waterfalls per request id, batch peers, dispatch context,
        retries, node churn.  Like the cost meter, the tracer only
        exists when a :class:`Tracer` is enabled; disabled runs pay one
        ``is None`` branch per hook site and stay bit-identical.
    reqtrace_sample:
        Fraction of batches retained in full (deterministic splitmix64
        over ``(seed, batch_id)``); the request tracer's ``tail_k``
        worst batches by first-arrival latency are always kept on top,
        so worst-K forensics stay exact under sampling.
    """

    keep_alive_seconds: float = 600.0
    warm_start: bool = True
    chaos: Optional[ChaosSpec] = None
    resilience: Optional[ResilienceConfig] = None
    sebs_colocation: bool = False
    sebs_invocation_rps: float = 4.0
    timeseries_interval_seconds: float = 0.5
    slo_monitor_window_seconds: float = 30.0
    cost_meter: bool = True
    cost_budget_dollars: Optional[float] = None
    reqtrace: bool = False
    reqtrace_sample: float = 1.0
    seed: int = 0


@dataclass
class RunResult:
    """Everything the analysis layer needs from one (scheme, model) run."""

    scheme: str
    model: str
    slo_seconds: float
    duration: float
    offered_requests: int
    completed_requests: int
    unserved_requests: int
    slo_compliance: float
    p50_seconds: float
    p99_seconds: float
    total_cost: float
    cost_by_spec: dict[str, float]
    time_by_spec: dict[str, float]
    energy_joules: float
    avg_watts: float
    utilization_by_spec: dict[str, float]
    tail_breakdown: dict[str, float]
    mode_split: dict[str, int]
    hardware_usage: dict[str, int]
    n_switches: int
    cold_starts: int
    #: Measured host wall-clock of execute() (setup + engine + finalize);
    #: 0.0 for the arm()/finalize() split entry points, whose engine time
    #: belongs to the shared-clock caller.
    wall_seconds: float = 0.0
    #: Resilience-layer counters (all zero when no policy is configured).
    retries_scheduled: int = 0
    retries_abandoned: int = 0
    requests_shed: int = 0
    requests_dropped: int = 0
    #: Itemized dollar decomposition (busy/cold-start/idle/reconfig,
    #: per-batch pro-rata attribution, per-(model, spec) tables); only
    #: populated on traced runs with ``RunConfig.cost_meter`` enabled.
    cost_breakdown: Optional[CostBreakdown] = field(
        repr=False, default=None
    )
    #: ``budget_alert`` transitions emitted by the cost budget monitor.
    budget_alerts: int = 0
    #: Per-request causal trace (phase waterfalls, batch peers, retry
    #: and node-churn events); only populated on traced runs with
    #: ``RunConfig.reqtrace`` enabled.
    reqtrace: Optional[RequestTraceData] = field(repr=False, default=None)
    #: (time, from_node, to_node) per completed traffic reroute.
    switch_log: list[tuple[float, str, str]] = field(default_factory=list)
    metrics: MetricsCollector = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def cost_per_hour(self) -> float:
        return self.total_cost / (self.duration / 3600.0) if self.duration else 0.0


class ServerlessRun:
    """One scheme serving one workload over one trace.

    Parameters
    ----------
    model / trace / policy:
        The workload, its arrival trace, and the scheduling policy.
    profiles:
        Profiling database (also fixes the catalog and interference).
    slo:
        The request SLO.
    config:
        Framework knobs.
    sim / cluster:
        Keyword-only injection points for shared-clock (multi-model)
        deployments.
    tracer:
        Telemetry sink (keyword-only).  Defaults to the shared disabled
        tracer: no spans, no decision events, no sampler events — the run
        is bit-identical to an untraced one.
    """

    def __init__(
        self,
        model: ModelSpec,
        trace: Trace,
        policy: Policy,
        profiles: Optional[ProfileService] = None,
        slo: Optional[SLO] = None,
        config: Optional[RunConfig] = None,
        *,
        sim: Optional[Simulator] = None,
        cluster: Optional[Cluster] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.model = model
        self.trace = trace
        self.policy = policy
        self.profiles = profiles if profiles is not None else ProfileService()
        self.slo = slo if slo is not None else SLO()
        self.config = config if config is not None else RunConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER

        # A multi-model deployment (see MultiModelRun) passes a shared
        # simulator and cluster so every function's lane lives on one
        # clock and one bill.
        self.sim = sim if sim is not None else Simulator()
        self.cluster = cluster if cluster is not None else Cluster(
            self.sim,
            self.profiles.catalog,
            interference=self.profiles.interference,
            seed=self.config.seed,
        )
        self.metrics = MetricsCollector()
        self._batch_ids = self.cluster.batch_ids
        self.tracker = RateTracker(MONITOR_INTERVAL_SECONDS)
        self.policy.bind_tracer(self.tracer)
        self.autoscaler = Autoscaler(
            model=model,
            profiles=self.profiles,
            predictor=getattr(policy, "predictor", EWMAPredictor()),
            slo_seconds=self.slo.target_seconds,
            keep_alive_seconds=self.config.keep_alive_seconds,
            interval_seconds=AUTOSCALE_INTERVAL_SECONDS,
            tracer=self.tracer,
        )

        self._current: Optional[NodeInstance] = None
        self._draining: list[NodeInstance] = []
        self._reconfig_target: Optional[HardwareSpec] = None
        self._reconfig_gen = 0
        self._failed_specs: set[str] = set()
        #: Arrival slices of windows waiting for a node.
        self._pending_windows: list[np.ndarray] = []
        #: Columnar arrival plan walked by the pump (set in ``_setup``).
        self._window_table: Optional[WindowTable] = None
        self._window_idx = 0
        #: Memoised per-(hardware, batch size) submission constants —
        #: solo time, FBR, and memory footprint are pure profile lookups.
        self._submit_consts: dict[tuple[str, int], tuple[float, float, float]] = {}
        #: Per node id, the (on_complete, on_evict) hooks of its jobs.
        self._job_hooks: dict[int, tuple] = {}
        #: ``containers_for_split`` per (spatial requests, batch, temporal?).
        self._reactive_need: dict[tuple[int, int, bool], int] = {}
        #: The policy's host-contention feedback hook, if it has one.
        self._observe_contention = getattr(policy, "observe_contention", None)
        self.n_switches = 0
        self.switch_log: list[tuple[float, str, str]] = []
        #: The nodes this run leased by node_id, in acquisition order (in
        #: a shared cluster, the lane's own share of the bill).
        self._owned: dict[int, NodeInstance] = {}
        self._sebs: Optional[SebsColocator] = None
        cfg = self.config
        self.resilience: Optional[ResilienceController] = None
        if cfg.resilience is not None:
            from repro.core.resilience import ResilienceController

            self.resilience = ResilienceController(cfg.resilience)
        #: Last backoff drawn per batch_id (decorrelated-jitter state).
        self._retry_backoff: dict[int, float] = {}
        self.requests_dropped = 0
        self._chaos: Optional[ChaosEngine] = None
        if cfg.chaos is not None:
            from repro.simulator.chaos import ChaosEngine, ChaosHooks

            self._chaos = ChaosEngine(
                self.sim,
                cfg.chaos,
                ChaosHooks(
                    on_node_fail=self._on_node_failure,
                    on_node_recover=self._on_node_recovery,
                    on_oom_kill=self._on_oom_kill,
                ),
                horizon=trace.duration,
                tracer=self.tracer,
            )
            if self._chaos.perturbs_cold_starts:
                # Must be installed before the warm-start pool is created
                # in _setup so every pool sees the hook.
                self.cluster.spawn_delay_fn = self._chaos.cold_start_delay
        #: The run's telemetry pillars (tracer, cost meter, request
        #: tracer, SLO and budget monitors, time-series sampler) behind
        #: one hook surface; built by ``RunObservers.for_run`` only when
        #: tracing is enabled, so an untraced run keeps ``None``.
        self.obs: Optional[RunObservers] = None
        #: Sim time at which the run stops: the trace plus drain grace.
        self.horizon = trace.duration + DRAIN_GRACE_SECONDS
        self._executed = False

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def execute(self) -> RunResult:
        """Run the whole trace and return the result summary."""
        if self._executed:
            raise RuntimeError("a ServerlessRun can only execute once")
        self._executed = True
        wall_t0 = perf_counter()
        self._setup()
        self.sim.run(until=self.horizon)
        result = self._finalize()
        result.wall_seconds = perf_counter() - wall_t0
        return result

    # Split entry points for shared-simulator (multi-model) deployments:
    # arm() schedules everything, finalize() summarises after the caller
    # has driven the shared clock.
    def arm(self) -> None:
        """Schedule this lane's events on the (possibly shared) simulator
        without running it."""
        if self._executed:
            raise RuntimeError("a ServerlessRun can only execute once")
        self._executed = True
        self._setup()

    def finalize(self) -> RunResult:
        """Summarise after the shared simulator has been driven."""
        return self._finalize()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _setup(self) -> None:
        cfg = self.config
        if self.tracer.enabled:
            from repro.telemetry.observers import RunObservers

            self.obs = RunObservers.for_run(self)
        # Initial hardware, warm-started.
        hint = max(self.trace.rate_window(0.0, 10.0), 1.0)
        initial_hw = self.policy.initial_hardware(hint)
        node = self.cluster.acquire(initial_hw, lambda n: None, instant=True,
                                    obs=self.obs)
        self._owned[node.node_id] = node
        self._current = node
        self.switch_log.append((0.0, "-", initial_hw.name))
        if cfg.warm_start:
            batch = self.policy.batch_size_on(initial_hw)
            n_warm = containers_for_split(
                math.ceil(hint), batch, has_temporal=True
            )
            node.pool(self.model.name).add_warm(n_warm)

        # Dispatch windows from the trace.  Full batches dispatch at the
        # moment they fill (streaming batcher).  The chunk is the largest
        # flexible batch any GPU in the catalog would use: a window only
        # dispatches early once a full batch of that size accumulated, so
        # smaller-batch hardware still receives its own carve at plan time.
        gpu_batches = [
            self.profiles.best_batch(self.model, hw, self.slo.target_seconds)
            for hw in self.profiles.catalog.gpus()
        ]
        chunk = max([b for b in gpu_batches if b > 0], default=self.model.max_batch)
        # Columnar arrival plan + pump: instead of one pre-scheduled event
        # per window, the whole plan lives in one WindowTable and a single
        # walking callback delivers every window sharing a dispatch
        # timestamp in one engine event, then re-arms itself for the next
        # distinct timestamp.  Engine-queue traffic drops from O(windows)
        # events at setup to one live event.
        self._window_table = WindowTable.plan(
            self.trace.arrivals, BATCH_WINDOW_SECONDS, max(1, chunk)
        )
        self._window_idx = 0
        if len(self._window_table):
            self.sim.schedule_at(
                float(self._window_table.dispatch_at[0]),
                self._pump_windows,
                priority=10,
            )

        # Monitor + autoscale loops.
        self.sim.schedule(MONITOR_INTERVAL_SECONDS, self._monitor_tick, priority=20)
        self.sim.schedule(
            AUTOSCALE_INTERVAL_SECONDS, self._autoscale_tick, priority=20
        )

        # Optional sensitivity-study machinery.
        if self._chaos is not None:
            self._chaos.start()
        if cfg.sebs_colocation:
            from repro.workloads.sebs import SebsColocator

            self._sebs = SebsColocator(
                self.sim,
                rng_seed=cfg.seed + 7,
                invocation_rps=cfg.sebs_invocation_rps,
            )
            self._sebs.attach(self._current)
            self._sebs.start()

    # ------------------------------------------------------------------
    # Dispatch path
    # ------------------------------------------------------------------
    def _pump_windows(self) -> None:
        """Deliver every dispatch window due *now*, then re-arm.

        Windows in the :class:`WindowTable` are sorted by dispatch time,
        so all rows sharing the current timestamp are consecutive; they
        are delivered in plan order within this one engine event (the same
        relative order the per-window scheduling gave them).  A window is
        its slice of the table's arrival column, also while it waits for
        a node."""
        table = self._window_table
        # ``.item`` reads Python scalars (as lists the table would be big).
        dispatch_at, starts, ends = table.dispatch_at, table.starts, table.ends
        arrivals = table.arrivals
        metrics, tracker = self.metrics, self.tracker
        i = self._window_idx
        n = len(dispatch_at)
        t = dispatch_at.item(i)
        while i < n and dispatch_at.item(i) == t:
            window = arrivals[starts.item(i):ends.item(i)]
            size = window.size
            metrics.record_offered(size)
            tracker.count(size)
            node = self._current
            if node is None or not node.available:
                self._pending_windows.append(window)
            else:
                self._dispatch(window, node)
            i += 1
        self._window_idx = i
        if i < n:
            self.sim.schedule_at(
                dispatch_at.item(i), self._pump_windows, priority=10
            )

    def _backlog(self, node: NodeInstance) -> int:
        """Requests queued at the node (device queues + container waits)."""
        backlog = node.device.queued_requests()
        pool = node.pool(self.model.name)
        # Waiting dispatches hold whole batches; approximate with the
        # current flexible batch size.
        backlog += pool.n_waiting * max(1, self.policy.batch_size_on(node.spec))
        return backlog

    def _dispatch(self, arrivals: np.ndarray, node: NodeInstance) -> None:
        """Plan one window's requests (``arrivals``, sorted) on ``node``
        and hand each planned batch to a container."""
        now = self.sim.now
        res = self.resilience
        degraded = res is not None and res.degraded(now)
        if degraded:
            # Graceful degradation, rung 1: requests whose deadline has
            # already passed are lost either way — shed them instead of
            # adding their load to an impaired fleet.
            expired = arrivals + self.slo.target_seconds <= now
            n_shed = int(expired.sum())
            if n_shed:
                res.shed(n_shed)
                obs = self.obs
                if obs is not None:
                    obs.shed(now, None, n_shed, "deadline_passed")
                arrivals = arrivals[~expired]
                if arrivals.size == 0:
                    return
        # Rung 2/3: shrink batches and force temporal-only while impaired
        # (an MPS fault alone also forces temporal, healthy breakers or
        # not — spatial sharing is simply unavailable).
        force_temporal = degraded or (
            self._chaos is not None and self._chaos.mps_down
        )
        cap = res.config.degraded_batch_cap if degraded else None
        spec, device, policy = node.spec, node.device, self.policy
        n = arrivals.size
        plan = policy.plan_window(
            n, spec, device.total_fbr if spec.is_gpu else 0.0, now,
            existing_queue=device.queued_requests(),
        )
        pool = node.pool(self.model.name)
        # Reactive scale-up: one container per spatial batch (+1 temporal).
        key = (plan.n - plan.y, policy.batch_size_on(spec), plan.has_temporal)
        need = self._reactive_need.get(key)
        if need is None:
            need = self._reactive_need[key] = containers_for_split(
                key[0], max(1, key[1]), has_temporal=key[2]
            )
        self.autoscaler.reactive(pool, need)
        model, batch_ids = self.model, self._batch_ids
        offset = 0
        for planned in plan.batches:
            end = offset + planned.size
            mode = ShareMode.TEMPORAL if force_temporal else planned.mode
            step = planned.size if cap is None else min(cap, planned.size)
            for lo in range(offset, end, step):
                # Positional arguments: keywords cost a third more here.
                batch = Batch(
                    model, arrivals[lo : min(lo + step, end)], now, mode,
                    next(batch_ids),
                    BatchBreakdown(max(0.0, now - arrivals.item(lo))),
                )
                if not pool.take_warm():
                    self._acquire_and_submit(batch, node, pool)
                elif node.available:
                    self._submit(batch, node, pool)
                else:
                    self._handle_failed_batch(batch)
            offset = end
        if offset != n:  # pragma: no cover - plan invariant
            raise RuntimeError(
                f"plan covered {offset} of {n} window requests"
            )

    def _acquire_and_submit(
        self, batch: Batch, node: NodeInstance, pool: ContainerPool
    ) -> None:
        """Give ``batch`` a container of ``pool`` on ``node``, then submit
        it; a batch that finds no warm idle container waits in the pool."""
        if pool.take_warm():
            if node.available:
                self._submit(batch, node, pool)
            else:
                self._handle_failed_batch(batch)
            return

        def on_container(ticket: AcquireTicket) -> None:
            if ticket.cold:
                batch.breakdown.cold_start_wait += ticket.wait
            elif batch.mode == ShareMode.SPATIAL:
                # A spatially-shared batch only waits for a container when
                # co-location pressure has every container pinned to a
                # slowed-down resident — consolidation-induced waiting is
                # interference (the paper's Fig 4 accounting).
                batch.breakdown.interference_extra += ticket.wait
            else:
                batch.breakdown.queue_delay += ticket.wait
            if not node.available:
                # The node failed while we waited; recover per policy.
                self._handle_failed_batch(batch)
                return
            self._submit(batch, node, pool)

        pool.request(on_container)

    def _handle_failed_batch(self, *batches: Batch) -> None:
        """Route batches that lost their node to the configured recovery:
        retry or drop each, or (``requeue``, the legacy default) put all
        their arrivals back into the pending queue as one window."""
        recovery = (
            self.resilience.config.recovery
            if self.resilience is not None
            else "requeue"
        )
        if recovery == "requeue":
            if batches:
                merged = np.sort(np.concatenate([b.arrivals for b in batches]))
                self._pending_windows.append(merged)
            return
        for batch in batches:
            if recovery == "retry":
                self._plan_retry(batch)
            else:
                self._drop(batch)

    def _drop(self, batch: Batch) -> None:
        """Lose a batch that lost its node (``recovery="drop"``)."""
        self.requests_dropped += batch.size
        obs = self.obs
        if obs is not None:
            obs.dropped(batch.batch_id, self.sim.now, batch.size)

    def _submit(
        self, batch: Batch, node: NodeInstance, pool: ContainerPool
    ) -> None:
        spec = node.spec
        size = batch.arrivals.size
        consts = self._submit_consts.get((spec.name, size))
        if consts is None:
            consts = (
                self.profiles.solo_time(self.model, spec, size),
                self.profiles.fbr(self.model, spec) if spec.is_gpu else 0.0,
                self.model.mem_gb_per_batch * (size / self.model.max_batch),
            )
            self._submit_consts[(spec.name, size)] = consts
        solo, fbr, mem = consts
        hooks = self._job_hooks.get(node.node_id)
        if hooks is None:
            hooks = self._job_hooks[node.node_id] = self._hooks_for(node, pool)
        on_complete, on_evict = hooks
        slowdown = (
            self._chaos.slowdown_factor if self._chaos is not None else 1.0
        )
        # Positional arguments, in field order (keywords cost more).
        node.device.submit(
            Job(batch, solo, fbr, mem, batch.mode, on_complete, on_evict,
                slowdown)
        )

    def _hooks_for(self, node: NodeInstance, pool: ContainerPool) -> tuple:
        """The completion and eviction hooks of every job this lane runs
        on ``node`` (built once per node; the job carries its batch).

        They close over the run's parts, not the run: the run keeps them,
        and a reference back would leave every finished run to the cycle
        collector instead of freeing it when its last reference goes."""
        name, node_id = node.spec.name, node.node_id
        sim, metrics, resilience = self.sim, self.metrics, self.resilience

        def on_complete(job: Job) -> None:
            pool.release()
            if resilience is not None:
                resilience.record_success(name, sim.now)
            metrics.record_batch(job.batch, node_id)

        def on_evict(job: Job) -> None:
            pool.release()

        return on_complete, on_evict

    # ------------------------------------------------------------------
    # Monitoring / reconfiguration
    # ------------------------------------------------------------------
    def _monitor_tick(self) -> None:
        now = self.sim.now
        rate = self.tracker.sample(now)
        self.policy.observe_rate(rate, now)
        if self._current is not None and self._observe_contention is not None:
            self._observe_contention(
                self._current.device.contention_factor, self._current.spec
            )
        if self._draining:
            self._release_drained()
        current = self._current
        if current is not None and current.available:
            # While a reconfiguration is in flight the in-flight target is
            # what the policy's choice is compared against, so a surge that
            # outgrows the node being procured re-targets immediately
            # instead of waiting for the obsolete switch to complete.
            reference = (
                self._reconfig_target
                if self._reconfig_target is not None
                else current.spec
            )
            desired = self.policy.desired_hardware(
                now, reference,
                current.device.total_fbr if current.spec.is_gpu else 0.0,
                backlog_requests=self._backlog(current),
                is_available=self._is_available,
            )
            if desired is not None and desired.name != reference.name:
                # Failure coping (Fig 13b): while an induced outage is
                # active, every scheme is modified to hold "the more
                # performant hardware with the least cost" — policy-driven
                # de-escalation resumes only after recovery.
                deescalating = desired.perf_rank > current.spec.perf_rank
                if not (self._failed_specs and deescalating):
                    self._reconfigure(desired)
        if now < self.horizon:
            self.sim.schedule(
                MONITOR_INTERVAL_SECONDS, self._monitor_tick, priority=20
            )

    def _is_available(self, hw: HardwareSpec) -> bool:
        if hw.name in self._failed_specs:
            return False
        # Breaker gate is read-only here: availability scans must not
        # consume half-open probe slots (those belong to dispatches).
        return not (
            self.resilience is not None
            and self.resilience.target_blocked(hw.name, self.sim.now)
        )

    def _reconfigure(self, desired: HardwareSpec) -> None:
        """Background hardware switch (Algorithm 1's ``reconfigure_HW``).

        Re-targetable: a newer reconfiguration supersedes one still in
        flight; the superseded node is released the moment it comes up."""
        self._reconfig_gen += 1
        gen = self._reconfig_gen
        self._reconfig_target = desired
        self.n_switches += 1
        instant = self.policy.instant_switch
        if self.tracer.enabled:
            self.tracer.event(
                "reconfig.request",
                self.sim.now,
                cat="decision",
                generation=gen,
                current=self._current.spec.name if self._current else None,
                desired=desired.name,
                instant=instant,
            )

        def on_ready(node: NodeInstance) -> None:
            if gen != self._reconfig_gen:
                self.cluster.release(node)  # superseded mid-provisioning
                return
            # Pre-warm containers before rerouting traffic.
            batch = self.policy.batch_size_on(node.spec)
            rate = self.tracker.current_rate
            n_warm = containers_for_split(
                max(1, math.ceil(rate)), max(1, batch), has_temporal=True
            )
            pool = node.pool(self.model.name)
            if instant:
                pool.add_warm(n_warm)
                self._switch_to(node)
            else:
                pool.ensure(n_warm)
                # Escalations start draining the old node's backlog on the
                # new (faster) node right away — the queue waits for warm
                # containers either way, and the new device drains it far
                # faster than the node we are escalating away from.
                if (
                    self._current is not None
                    and node.spec.perf_rank < self._current.spec.perf_rank
                ):
                    self._migrate_queue(self._current, node)
                self.sim.schedule(
                    node.spec.cold_start_seconds,
                    lambda: self._switch_to(node)
                    if gen == self._reconfig_gen
                    else self.cluster.release(node),
                )

        node = self.cluster.acquire(desired, on_ready, instant=instant,
                                    obs=self.obs)
        self._owned[node.node_id] = node

    def _switch_to(self, node: NodeInstance) -> None:
        old = self._current
        self._current = node
        self._reconfig_target = None
        self.switch_log.append(
            (self.sim.now, old.spec.name if old else "-", node.spec.name)
        )
        if self.tracer.enabled:
            self.tracer.event(
                "reconfig.switch",
                self.sim.now,
                cat="decision",
                from_hw=old.spec.name if old else None,
                to_hw=node.spec.name,
                node_id=node.node_id,
            )
        if self._sebs is not None:
            self._sebs.attach(node)
        if old is not None and old.available:
            # Escalation: pull the software queue onto the faster node (it
            # drains much quicker there).  De-escalation: leave the queue to
            # drain on the old (faster) node — dragging it onto cheaper
            # hardware would strand it.
            if node.spec.perf_rank < old.spec.perf_rank:
                self._migrate_queue(old, node)
            if old.device.idle:
                self.cluster.release(old)
            else:
                self._draining.append(old)
        self._flush_pending(node)

    def _migrate_queue(self, old: NodeInstance, node: NodeInstance) -> None:
        """Move not-yet-started jobs from ``old``'s device to ``node``."""
        pool = node.pool(self.model.name)
        for job in old.device.evict_queued():
            job.batch.breakdown.queue_delay += self.sim.now - job.submitted_at
            if job.on_evict is not None:
                job.on_evict(job)
            self._acquire_and_submit(job.batch, node, pool)

    def _release_drained(self) -> None:
        still = []
        for node in self._draining:
            pools_quiet = all(
                p.n_waiting == 0 and p.n_busy == 0
                for p in node.pools().values()
            )
            if (node.device.idle and pools_quiet) or not node.available:
                if node.node_id in self.cluster._active_leases:
                    self.cluster.release(node)
            else:
                still.append(node)
        self._draining = still

    def _flush_pending(self, node: NodeInstance) -> None:
        pending, self._pending_windows = self._pending_windows, []
        for arrivals in pending:
            self._dispatch(arrivals, node)

    # ------------------------------------------------------------------
    # Autoscaling loop
    # ------------------------------------------------------------------
    def _autoscale_tick(self) -> None:
        if self._current is not None and self._current.available:
            self.autoscaler.tick(
                self._current.pool(self.model.name),
                self._current.spec,
                self.sim.now,
            )
        if self.sim.now < self.trace.duration:
            self.sim.schedule(
                AUTOSCALE_INTERVAL_SECONDS, self._autoscale_tick, priority=20
            )

    # ------------------------------------------------------------------
    # Failure handling (Fig 13b)
    # ------------------------------------------------------------------
    def _failover_choice(self, failed: HardwareSpec) -> HardwareSpec:
        """'Switch to the more performant hardware with the least cost'; if
        the failed node was the most performant, the next best GPU."""
        avail = [hw for hw in self.profiles.catalog if self._is_available(hw)]
        if not avail:
            raise RuntimeError("every node type is down")
        better = [hw for hw in avail if hw.perf_rank < failed.perf_rank]
        if better:
            return min(better, key=lambda h: h.price_per_hour)
        return min(avail, key=lambda h: h.perf_rank)

    def _on_node_failure(self) -> None:
        node = self._current
        if node is None:
            return
        self._failed_specs.add(node.spec.name)
        if self.resilience is not None:
            self.resilience.record_failure(node.spec.name, self.sim.now)
        evicted = node.fail()
        if node.node_id in self.cluster._active_leases:
            self.cluster.release(node)
        self._current = None
        self._reconfig_target = None
        self._reconfig_gen += 1  # cancel any in-flight reconfiguration
        self._handle_failed_batch(*[job.batch for job in evicted])
        failover = self._failover_choice(node.spec)

        def on_ready(new_node: NodeInstance) -> None:
            batch = self.policy.batch_size_on(new_node.spec)
            new_node.pool(self.model.name).ensure(
                containers_for_split(
                    max(1, math.ceil(self.tracker.current_rate)),
                    max(1, batch),
                    has_temporal=True,
                )
            )
            self.sim.schedule(
                new_node.spec.cold_start_seconds,
                lambda: self._switch_to(new_node),
            )

        node = self.cluster.acquire(failover, on_ready, obs=self.obs)
        self._owned[node.node_id] = node

    def _on_node_recovery(self) -> None:
        self._failed_specs.clear()

    def _on_oom_kill(self) -> bool:
        """Chaos OOM: one resident batch's container dies mid-execution.
        Returns whether a running batch was there to kill."""
        node = self._current
        if node is None or not node.available:
            return False
        job = node.device.evict_one()
        if job is None:
            return False
        if job.on_evict is not None:
            job.on_evict(job)  # balances the container acquisition
        if self.resilience is not None:
            self.resilience.record_failure(node.spec.name, self.sim.now)
            if self.resilience.config.recovery != "requeue":
                self._handle_failed_batch(job.batch)
                return True
        # Requeue (default): unlike a node outage the node itself is still
        # healthy, so the evicted work redispatches immediately.
        self._dispatch(job.batch.arrivals, node)
        return True

    # ------------------------------------------------------------------
    # Deadline-aware retry (resilience layer)
    # ------------------------------------------------------------------
    def _plan_retry(self, batch: Batch) -> None:
        """Schedule the next dispatch attempt of a failed batch — deadline
        permitting — or shed/abandon it."""
        res = self.resilience
        assert res is not None, "retry planned without a resilience policy"
        now = self.sim.now
        deadline = batch.first_arrival + self.slo.target_seconds
        if now >= deadline:
            res.shed(batch.size)
            obs = self.obs
            if obs is not None:
                obs.shed(now, batch.batch_id, batch.size, "deadline_passed")
            return
        plan = res.plan_retry(
            now,
            deadline,
            attempt=batch.retries + 1,
            prev_backoff=self._retry_backoff.get(batch.batch_id, 0.0),
        )
        obs = self.obs
        if plan is None:
            if obs is not None:
                obs.retry_abandoned(batch, now, deadline)
            return
        delay, backoff = plan
        self._retry_backoff[batch.batch_id] = backoff
        if obs is not None:
            obs.retry_scheduled(batch, now, delay, deadline)
        self.sim.schedule(
            delay, lambda: self._retry_dispatch(batch, deadline), priority=10
        )

    def _retry_dispatch(self, batch: Batch, deadline: float) -> None:
        now = self.sim.now
        res = self.resilience
        assert res is not None
        node = self._current
        if (
            node is None
            or not node.available
            or not res.target_available(node.spec.name, now)
        ):
            # No admissible target yet: plan another attempt.  This
            # terminates — every backoff is >= the base backoff, and
            # plan_retry clamps the cumulative wait to the SLO deadline.
            self._plan_retry(batch)
            return
        bd = batch.breakdown
        # The failed attempt's span [dispatched_at, now) is fault-induced
        # loss; attempt-scoped components restart with the new attempt so
        # the breakdown still sums to end-to-end latency.
        bd.failure_wait += now - batch.dispatched_at
        bd.cold_start_wait = 0.0
        bd.queue_delay = 0.0
        bd.interference_extra = 0.0
        bd.exec_solo = 0.0
        batch.dispatched_at = now
        batch.retries += 1
        obs = self.obs
        if obs is not None:
            obs.retry_dispatched(batch, now, deadline, node.spec.name)
        self._acquire_and_submit(batch, node, node.pool(self.model.name))

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _finalize(self) -> RunResult:
        # Anything not completed counts against compliance.
        completed = self.metrics.completed_requests()
        offered = self.metrics.total_requests_offered
        self.metrics.record_unserved(max(0, offered - completed))

        duration = self.trace.duration
        now = self.sim.now

        # In a shared cluster (MultiModelRun) this lane only bills for the
        # nodes it leased; standalone runs own everything.
        owned = [
            (node, lease)
            for node, lease in zip(self.cluster.nodes, self.cluster.leases)
            if node.node_id in self._owned
        ]
        billed = bill(owned, now)
        assert math.isclose(
            sum(billed.cost_by_spec.values()), billed.total_cost,
            rel_tol=1e-9, abs_tol=1e-12,
        ), "per-spec cost split does not sum to total_cost"

        cold = sum(node.cold_starts for node, _ in owned)
        breakdown, reqtrace_data, budget_alerts = None, None, 0
        obs = self.obs
        if obs is not None:
            meta = {
                "completed_requests": completed, "offered_requests": offered,
                "total_cost": billed.total_cost,
                "n_switches": self.n_switches,
                "engine_dispatches": self.sim.n_dispatched,
            }
            breakdown, reqtrace_data, budget_alerts = obs.run_finalized(
                now, owned, meta
            )
        slo_s = self.slo.target_seconds
        return RunResult(
            scheme=self.policy.name,
            model=self.model.name,
            slo_seconds=slo_s,
            duration=duration,
            offered_requests=offered,
            completed_requests=completed,
            unserved_requests=max(0, offered - completed),
            slo_compliance=self.metrics.slo_compliance(slo_s),
            p50_seconds=self.metrics.percentile_latency(50.0),
            p99_seconds=self.metrics.percentile_latency(99.0),
            **billed._asdict(),
            avg_watts=billed.energy_joules / now if now > 0 else 0.0,
            tail_breakdown=self.metrics.tail_breakdown(),
            mode_split=self.metrics.mode_split(),
            hardware_usage=self.metrics.hardware_usage(),
            n_switches=self.n_switches,
            cold_starts=cold,
            retries_scheduled=(
                self.resilience.retries_scheduled if self.resilience else 0
            ),
            retries_abandoned=(
                self.resilience.retries_abandoned if self.resilience else 0
            ),
            requests_shed=(
                self.resilience.requests_shed if self.resilience else 0
            ),
            requests_dropped=self.requests_dropped,
            cost_breakdown=breakdown,
            budget_alerts=budget_alerts,
            reqtrace=reqtrace_data,
            switch_log=list(self.switch_log),
            metrics=self.metrics,
        )
