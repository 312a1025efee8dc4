"""Dollar-grade cost metering: itemized lease-seconds and budget alerts.

The cluster already bills leases (Section V: lease-time-weighted node
prices), but the bill is one opaque scalar.  This module itemizes every
lease-second into exactly one of four buckets:

* **reconfiguration** — the VM is provisioning (lease start until the
  node's ``on_ready``); nothing can run yet, but billing already started.
* **busy** — at least one batch is resident on the device.  Busy dollars
  are attributed to the resident batches *pro-rata by occupancy* (a
  batch of 8 co-running with a batch of 2 absorbs 80% of the interval's
  dollars), so each request gets a ``cost_dollars`` share that rolls up
  exactly to the lease bill — a conservation identity.
* **cold-start** — no batch resident, but containers are spawning (the
  dollars bought warm pools, not inference).
* **idle** — a warm node waiting for traffic (keep-alive dollars).

Every lease-second lands in exactly one bucket, so::

    sum(request cost_dollars) + idle + cold_start + reconfiguration
        == RunResult.total_cost          (within float tolerance)

Like the sampler and self-profiler, the meter is a pure observer with a
zero-overhead disabled path: every instrumented site in the cluster and
the container pools pays one attribute load plus one ``is None`` branch
when no meter is installed, proven by deterministic call-count gates
(``benchmarks/test_bench_costmeter.py``).  Completed batches are not a
hook at all: the meter reads their residency from the run's batch log
when it summarizes.

:class:`CostBudgetMonitor` (shape of
:class:`~repro.telemetry.slo_monitor.SLOMonitor`) rides the telemetry
tick: it tracks the $/hour burn rate over a sliding window and emits
edge-triggered ``budget_alert`` trace events when the projected
end-of-run spend crosses ``RunConfig.cost_budget_dollars`` — ``firing``
once on the way up, ``resolved`` once on the way back down.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.simulator.metrics import BatchLog, BatchReader

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.catalog import HardwareSpec
    from repro.telemetry.tracer import Tracer

__all__ = [
    "BUCKETS",
    "CostBreakdown",
    "CostBudgetMonitor",
    "CostMeter",
    "LeaseCost",
    "ModelSpecCost",
]

#: Itemization buckets, in waterfall order.
BUCKETS = ("busy", "coldstart", "idle", "reconfig")


class _LeaseState:
    """Everything the meter records about one lease, keyed by node_id."""

    __slots__ = (
        "node_id", "spec_name", "price_per_second", "start", "ready_at",
        "end", "spawns", "batches",
    )

    def __init__(
        self,
        node_id: int,
        spec_name: str,
        price_per_second: float,
        start: float,
        ready_at: float,
    ) -> None:
        self.node_id = node_id
        self.spec_name = spec_name
        self.price_per_second = price_per_second
        self.start = start
        self.ready_at = ready_at
        self.end: Optional[float] = None
        #: (t0, t1) container-spawn intervals on this node.
        self.spawns: list[tuple[float, float]] = []
        #: Batches that ran on this node, in completion order, as column
        #: chunks: (batch ids, models, n_requests, started_at,
        #: completed_at) — arrays but for the list of model names.
        self.batches: list[tuple] = []


@dataclass
class LeaseCost:
    """One lease's itemized bill."""

    node_id: int
    spec: str
    start: float
    end: float
    total_dollars: float
    #: Dollars per bucket; keys are exactly :data:`BUCKETS`.
    bucket_dollars: dict[str, float]
    #: Seconds per bucket (same keys).
    bucket_seconds: dict[str, float]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ModelSpecCost:
    """Busy-dollar aggregate for one (model, hardware spec) pair."""

    model: str
    spec: str
    busy_dollars: float = 0.0
    busy_seconds: float = 0.0
    requests: int = 0
    batches: int = 0

    @property
    def dollars_per_1k_requests(self) -> float:
        return self.busy_dollars / self.requests * 1000.0 if self.requests else 0.0


@dataclass
class CostBreakdown:
    """The meter's end-of-run summary (``RunResult.cost_breakdown``).

    ``total_dollars`` equals the sum of the four buckets by construction;
    ``busy_dollars`` equals the sum of ``batch_cost_dollars`` values (the
    per-batch pro-rata attribution), so per-request dollars
    (``batch cost / batch size``) roll up to the full bill.
    """

    total_dollars: float = 0.0
    bucket_dollars: dict[str, float] = field(
        default_factory=lambda: {b: 0.0 for b in BUCKETS}
    )
    bucket_seconds: dict[str, float] = field(
        default_factory=lambda: {b: 0.0 for b in BUCKETS}
    )
    #: Per-lease itemized bills, in acquisition order.
    leases: list[LeaseCost] = field(default_factory=list)
    #: Busy-dollar attribution per (model, spec).
    by_model_spec: dict[tuple[str, str], ModelSpecCost] = field(
        default_factory=dict
    )
    #: All-bucket dollars per hardware spec.
    spec_dollars: dict[str, float] = field(default_factory=dict)
    #: Pro-rata busy dollars per batch_id.
    batch_cost_dollars: dict[int, float] = field(default_factory=dict)
    #: Requests per batch_id (denominator for per-request cost).
    batch_requests: dict[int, int] = field(default_factory=dict)

    @property
    def busy_dollars(self) -> float:
        return self.bucket_dollars["busy"]

    @property
    def coldstart_dollars(self) -> float:
        return self.bucket_dollars["coldstart"]

    @property
    def idle_dollars(self) -> float:
        return self.bucket_dollars["idle"]

    @property
    def reconfig_dollars(self) -> float:
        return self.bucket_dollars["reconfig"]

    def request_cost_dollars(self, batch_id: int) -> float:
        """One request's pro-rata dollar share of its batch."""
        n = self.batch_requests.get(batch_id, 0)
        return self.batch_cost_dollars.get(batch_id, 0.0) / n if n else 0.0

    def attributed_dollars(self) -> float:
        """Per-request attribution + overhead buckets (the conservation
        identity's left-hand side)."""
        return (
            sum(self.batch_cost_dollars.values())
            + self.bucket_dollars["coldstart"]
            + self.bucket_dollars["idle"]
            + self.bucket_dollars["reconfig"]
        )


class CostMeter:
    """Per-lease cost itemization with pro-rata request attribution.

    The meter is event-driven and passive: the cluster reports the
    run's lease acquire/release and container pools report spawn
    intervals, while each completed batch's residency interval is read
    from the run's batch log when the meter summarizes
    (:meth:`on_batch`).  The expensive part — the per-lease line sweep
    that decomposes lease time into buckets — runs in :meth:`summarize`,
    never on the hot path.
    """

    def __init__(self) -> None:
        #: Open leases by node_id.
        self._open: dict[int, _LeaseState] = {}
        #: Closed lease states, in release order.
        self._closed: list[_LeaseState] = []
        #: Running total of closed-lease dollars (for :meth:`spent`).
        self._closed_dollars = 0.0
        #: Every lease by node_id, open or closed.
        self._leases: dict[int, _LeaseState] = {}
        #: Reads the run's batch log.
        self.batches = BatchReader()

    # ------------------------------------------------------------------
    # Hooks (each a single call from an ``is None``-guarded site)
    # ------------------------------------------------------------------
    def on_acquire(
        self, node_id: int, spec: "HardwareSpec", now: float, ready_at: float
    ) -> None:
        """Billing starts: lease opened at ``now``; the node can serve
        traffic from ``ready_at`` (== ``now`` for instant acquisition)."""
        self._open[node_id] = self._leases[node_id] = _LeaseState(
            node_id, spec.name, spec.price_per_second, now, ready_at
        )

    def on_release(self, node_id: int, now: float) -> None:
        """Billing stops for ``node_id``'s lease."""
        state = self._open.pop(node_id, None)
        if state is None:
            return
        state.end = now
        self._closed.append(state)
        self._closed_dollars += (now - state.start) * state.price_per_second

    def on_spawn(self, node_id: int, t0: float, t1: float) -> None:
        """A container spawn on ``node_id`` occupies ``[t0, t1)``."""
        state = self._open.get(node_id)
        if state is not None:
            state.spawns.append((t0, t1))

    def attach(self, log: BatchLog) -> None:
        """Meter the batches the run appends to ``log``."""
        self.batches.attach(log)

    def on_batch(self) -> None:
        """Read the batches the attached log completed since the last
        read into their leases: each executed on its node over
        ``[started_at, completed_at)``, and busy dollars in that span are
        shared pro-rata with any co-resident batches."""
        rows = self.batches.read(copy=False)
        if not len(rows):
            return
        col = rows.rows
        nodes = col["node_id"]
        order = np.argsort(nodes, kind="stable")
        models = rows.labels("model")
        by_node = nodes[order]
        starts = [0, *(np.flatnonzero(np.diff(by_node)) + 1).tolist()]
        for lo, hi in zip(starts, starts[1:] + [len(order)]):
            state = self._leases.get(int(by_node[lo]))
            if state is not None:
                rows_on_node = order[lo:hi]
                state.batches.append((
                    col["batch_id"][rows_on_node],
                    [models[i] for i in rows_on_node.tolist()],
                    col["size"][rows_on_node],
                    col["started_at"][rows_on_node],
                    col["completed_at"][rows_on_node],
                ))

    # ------------------------------------------------------------------
    # Live reads (budget monitor / time-series probes)
    # ------------------------------------------------------------------
    def spent(self, now: float) -> float:
        """Dollars spent so far: closed leases plus open leases billed to
        ``now``.  O(open leases); mutates nothing."""
        open_dollars = sum(
            (now - s.start) * s.price_per_second
            for s in self._open.values()
        )
        return self._closed_dollars + open_dollars

    @property
    def n_leases(self) -> int:
        return len(self._open) + len(self._closed)

    # ------------------------------------------------------------------
    # Itemization
    # ------------------------------------------------------------------
    @staticmethod
    def _itemize(state: _LeaseState, end: float) -> LeaseCost:
        """Line-sweep one lease into bucket dollars/seconds.

        Transition points are the lease boundaries, the ready instant,
        and every (clipped) spawn/batch endpoint; between consecutive
        points the resident set and spawn count are constant, so each
        sub-interval lands in exactly one bucket.  Bucket priority:
        busy > reconfiguration > cold-start > idle.

        The sweep runs on arrays but keeps the arithmetic of a
        one-interval-at-a-time walk: every sum accumulates sequentially
        in interval order, so the dollars match it bit for bit
        (``tests/telemetry/test_costmeter_walk.py`` keeps the walk and
        compares the two).
        """
        start, pps = state.start, state.price_per_second
        ready = min(max(state.ready_at, start), end)
        if state.batches:
            ids, models, sizes, b0, b1 = (
                np.concatenate(chunk) for chunk in zip(*state.batches)
            )
        else:
            ids, models = np.empty(0, np.int64), np.empty(0, object)
            sizes, b0, b1 = np.empty(0, np.int64), np.empty(0), np.empty(0)
        b0, b1 = np.maximum(b0, start), np.minimum(b1, end)
        ran = b1 > b0
        ids, models, sizes, b0, b1 = (a[ran] for a in (ids, models, sizes,
                                                       b0, b1))
        spawns = np.array(state.spawns, dtype=float).reshape(-1, 2)
        s0 = np.maximum(spawns[:, 0], start)
        s1 = np.minimum(spawns[:, 1], end)
        s0, s1 = s0[s1 > s0], s1[s1 > s0]
        # Events in insertion order — each batch's add then removal, each
        # spawn's, then the ready boundary — stably sorted by (time,
        # order): removals (order 0) apply before additions at an instant.
        nb, ns = len(b0), len(s0)
        times = np.concatenate((np.column_stack((b0, b1)).ravel(),
                                np.column_stack((s0, s1)).ravel(),
                                [ready] if start < ready else []))
        order = np.concatenate((np.tile([1, 0], nb + ns),
                                [0] if start < ready else []))
        d_requests = np.concatenate((np.column_stack((sizes, -sizes)).ravel(),
                                     np.zeros(times.size - 2 * nb, np.int64)))
        d_spawning = np.concatenate((np.zeros(2 * nb, np.int64),
                                     np.tile([1, -1], ns),
                                     np.zeros(times.size - 2 * (nb + ns),
                                              np.int64)))
        sort = np.lexsort((order, times))
        # Interval k ends at event k (the last at ``end``) and sees the
        # state left by events 0..k-1.
        until = np.append(times[sort], end)
        dt = until - np.concatenate(([start], until[:-1]))
        dollars = dt * pps
        requests = np.concatenate(([0], np.cumsum(d_requests[sort])))
        spawning = np.concatenate(([0], np.cumsum(d_spawning[sort])))
        billed = dt > 0
        busy = billed & (requests > 0)
        reconfig = billed & ~busy & (until <= ready)
        coldstart = billed & ~busy & ~reconfig & (spawning > 0)
        idle = billed & ~(busy | reconfig | coldstart)

        def total(values: np.ndarray, mask: np.ndarray) -> float:
            picked = values[mask]
            return float(np.cumsum(picked)[-1]) if picked.size else 0.0

        masks = {"busy": busy, "coldstart": coldstart, "idle": idle,
                 "reconfig": reconfig}
        bucket_dollars = {b: total(dollars, m) for b, m in masks.items()}
        bucket_seconds = {b: total(dt, m) for b, m in masks.items()}

        # Each batch is resident in intervals (add, removal] and takes
        # its pro-rata share of every billed one, summed in interval order.
        position = np.empty(sort.size, np.int64)
        position[sort] = np.arange(sort.size)
        added, removed = position[0:2 * nb:2], position[1:2 * nb:2]
        spans = removed - added
        batch = np.repeat(np.arange(nb), spans)
        interval = (np.repeat(added + 1 - (np.cumsum(spans) - spans), spans)
                    + np.arange(spans.sum()))
        keep = billed[interval]
        batch, interval = batch[keep], interval[keep]
        share = dollars[interval] * (sizes[batch] / requests[interval])
        # ``add.at`` adds element by element, in order: one sequential sum
        # per batch, in interval order.
        acc = np.zeros(nb)
        np.add.at(acc, batch, share)
        # A walk records the batches in order of addition: a batch that
        # ran has at least one billed interval, paid from its first.
        by_added = np.argsort(added, kind="stable")

        lease = LeaseCost(
            node_id=state.node_id,
            spec=state.spec_name,
            start=start,
            end=end,
            total_dollars=sum(bucket_dollars.values()),
            bucket_dollars=bucket_dollars,
            bucket_seconds=bucket_seconds,
        )
        # Stash the per-batch attribution on the result for summarize():
        # (ids, models, requests, dollars) of the batches that ran, in
        # walk order.
        lease._batches = tuple(  # type: ignore[attr-defined]
            a[by_added] for a in (ids, models, sizes, acc)
        )
        return lease

    def summarize(self, now: float) -> CostBreakdown:
        """Aggregate every lease into a :class:`CostBreakdown`.

        Open leases are billed to ``now`` without being closed (the
        meter stays live).
        """
        self.on_batch()
        out = CostBreakdown()

        def cell_of(model: str, spec: str) -> ModelSpecCost:
            cell = out.by_model_spec.get((model, spec))
            if cell is None:
                cell = out.by_model_spec[(model, spec)] = ModelSpecCost(
                    model=model, spec=spec
                )
            return cell

        states = self._closed + list(self._open.values())
        states.sort(key=lambda s: (s.start, s.node_id))
        for state in states:
            end = state.end if state.end is not None else now
            lease = self._itemize(state, end)
            out.leases.append(lease)
            out.total_dollars += lease.total_dollars
            spec = lease.spec
            out.spec_dollars[spec] = (
                out.spec_dollars.get(spec, 0.0) + lease.total_dollars
            )
            for b in BUCKETS:
                out.bucket_dollars[b] += lease.bucket_dollars[b]
                out.bucket_seconds[b] += lease.bucket_seconds[b]
            ids, models, sizes, dollars = lease._batches  # type: ignore[attr-defined]
            # A log row carries one node id and batch ids are unique in a
            # cluster, so a batch is paid on one lease only.
            bids = ids.tolist()
            out.batch_cost_dollars.update(zip(bids, dollars.tolist()))
            out.batch_requests.update(zip(bids, sizes.tolist()))
            # Busy dollars add up per (model, spec) in walk order.
            for model in dict.fromkeys(models.tolist()):
                ran = models == model
                cell = cell_of(model, spec)
                cell.busy_dollars = float(np.cumsum(np.concatenate(
                    ([cell.busy_dollars], dollars[ran])
                ))[-1])
                cell.requests += int(sizes[ran].sum())
                cell.batches += int(ran.sum())
        # Busy seconds per (model, spec): re-derive from batch residency
        # is ambiguous under co-run; credit each cell its dollar share of
        # the spec's busy seconds instead (exact when prices are uniform
        # within a spec, which they are — one price per spec).
        for (model, spec), cell in out.by_model_spec.items():
            spec_busy_dollars = sum(
                l.bucket_dollars["busy"] for l in out.leases if l.spec == spec
            )
            spec_busy_seconds = sum(
                l.bucket_seconds["busy"] for l in out.leases if l.spec == spec
            )
            if spec_busy_dollars > 0:
                cell.busy_seconds = (
                    cell.busy_dollars / spec_busy_dollars * spec_busy_seconds
                )
        return out


class CostBudgetMonitor:
    """Sliding-window burn-rate watchdog over a :class:`CostMeter`.

    Every sample tick reads the meter's cumulative spend, maintains a
    window of (t, spent) points, and computes the **burn rate** in
    dollars/hour.  With a budget configured, the projected end-of-run
    spend (``spent + burn_rate * time_remaining``) is compared against
    it: crossing up emits one edge-triggered ``budget_alert`` trace
    event with ``state="firing"``, crossing back down one with
    ``state="resolved"`` — the same fire-once semantics as
    :class:`~repro.telemetry.slo_monitor.SLOMonitor`.

    Parameters
    ----------
    meter:
        The live cost meter to read.
    tracer:
        Sink for ``budget_alert`` events (and nothing else).
    budget_dollars:
        The run's dollar budget; ``None`` disables alerting (the burn
        rate is still computed for the time-series probes).
    window_seconds:
        Sliding-window width for the burn-rate estimate.
    horizon_seconds:
        When the run ends (trace duration + drain), for the projection.
        ``None`` projects nothing — the alert then compares the *spend
        so far* against the budget.
    """

    def __init__(
        self,
        meter: CostMeter,
        *,
        tracer: Optional["Tracer"] = None,
        budget_dollars: Optional[float] = None,
        window_seconds: float = 30.0,
        horizon_seconds: Optional[float] = None,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if budget_dollars is not None and budget_dollars <= 0:
            raise ValueError("budget_dollars must be positive")
        self.meter = meter
        self.tracer = tracer
        self.budget_dollars = budget_dollars
        self.window_seconds = float(window_seconds)
        self.horizon_seconds = horizon_seconds
        self._samples: deque[tuple[float, float]] = deque()
        self._firing = False
        self.alerts_emitted = 0
        #: Latest windowed $/hour burn rate (time-series probe surface).
        self.burn_rate_per_hour = 0.0
        #: Latest projected end-of-run spend.
        self.projected_dollars = 0.0

    @property
    def firing(self) -> bool:
        return self._firing

    def sample(self, now: float) -> float:
        """One monitor tick; returns the projected end-of-run dollars."""
        spent = self.meter.spent(now)
        samples = self._samples
        samples.append((now, spent))
        cutoff = now - self.window_seconds
        while len(samples) > 1 and samples[0][0] < cutoff:
            samples.popleft()
        t0, s0 = samples[0]
        dt = now - t0
        self.burn_rate_per_hour = (spent - s0) / dt * 3600.0 if dt > 0 else 0.0
        remaining = (
            max(0.0, self.horizon_seconds - now)
            if self.horizon_seconds is not None
            else 0.0
        )
        projected = spent + self.burn_rate_per_hour / 3600.0 * remaining
        self.projected_dollars = projected
        if self.budget_dollars is None:
            return projected
        # Projection needs a real window (two points) before it can fire;
        # a single sample projects from a zero burn rate, which would
        # understate the spend and then flap on the second tick.
        should_fire = dt > 0 and projected > self.budget_dollars
        if should_fire and not self._firing:
            self._firing = True
            self._emit(now, spent, projected, "firing")
        elif not should_fire and self._firing:
            self._firing = False
            self._emit(now, spent, projected, "resolved")
        return projected

    def _emit(
        self, now: float, spent: float, projected: float, state: str
    ) -> None:
        self.alerts_emitted += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "budget_alert",
                now,
                cat="alert",
                track="cost-monitor",
                state=state,
                spent_dollars=spent,
                projected_dollars=projected,
                budget_dollars=self.budget_dollars,
                burn_rate_per_hour=self.burn_rate_per_hour,
                window_seconds=self.window_seconds,
                horizon_seconds=self.horizon_seconds,
            )
