"""The Section II motivation study (Fig 1).

Two workloads — SENet 18 (~575 rps) and DenseNet 121 (~160 rps) — co-run on
a *single pinned GPU* under the stable Wiki trace, with an SLO of 200 ms.
Five schemes are compared:

* ``Time Shared Only (P)``  — everything queued, on the V100;
* ``MPS Only (P)``          — everything spatial, on the V100;
* ``Time Shared Only ($)``  — everything queued, on the M60;
* ``MPS Only ($)``          — everything spatial, on the M60;
* ``Offline Hybrid``        — a per-model temporal fraction found by an
  offline sweep, on the M60.

This needs a multi-tenant runner (two models share one device), which
:class:`PinnedColocationRun` provides: a slimmed version of the framework
run with a fixed node and per-model fixed split fractions.

Deviation note: the paper pins batch sizes to 128/64; under our profile
anchors a 128-batch cannot finish within the 200 ms SLO on an M60, so the
study uses the framework's flexible batcher (Section IV-B) on all schemes
alike, preserving the comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.breakdown import paper_bars_ms
from repro.analysis.stats import compliance_percent
from repro.baselines.offline_hybrid import DEFAULT_FRACTION_GRID, OfflineHybridPolicy
from repro.framework.batching import WindowTable
from repro.framework.request import Batch
from repro.framework.slo import SLO
from repro.framework.system import BATCH_WINDOW_SECONDS
from repro.hardware.catalog import HardwareSpec
from repro.hardware.profiles import ProfileService
from repro.simulator.cluster import Cluster, NodeInstance
from repro.simulator.engine import Simulator
from repro.simulator.metrics import MetricsCollector
from repro.workloads.models import ModelSpec, get_model
from repro.workloads.traces import Trace, wiki_trace

__all__ = [
    "TenantSpec",
    "PinnedColocationRun",
    "MotivationOutcome",
    "cpu_vs_gpu_cost_example",
    "run_motivation_scheme",
    "sweep_offline_hybrid",
    "MOTIVATION_SCHEMES",
]

#: Extra sim time after the longest tenant trace ends, so in-flight
#: work can finish.
PINNED_DRAIN_GRACE_SECONDS = 20.0

#: Fig 1's workload rates (mean rps of the Wiki trace driving each model).
SENET_MEAN_RPS = 575.0
DENSENET_MEAN_RPS = 160.0

MOTIVATION_SCHEMES: tuple[str, ...] = (
    "time_shared_P",
    "mps_only_P",
    "time_shared_$",
    "mps_only_$",
    "offline_hybrid",
)


@dataclass
class TenantSpec:
    """One co-located workload on the pinned node."""

    model: ModelSpec
    trace: Trace
    temporal_fraction: float  # 1.0 = pure time sharing, 0.0 = pure MPS


class PinnedColocationRun:
    """Multi-tenant run on one fixed node with fixed split fractions.

    Each tenant's windows are the rows of one :class:`WindowTable`, one
    engine event per row, tenant by tenant (the tenants' window edges
    coincide, so this order fixes same-instant dispatches).  An
    :class:`OfflineHybridPolicy` at the tenant's fraction, which must lie
    in ``[0, 1]``, carves them.
    Containers are pre-warmed generously (the motivation study isolates
    GPU-sharing effects, not autoscaling).
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        hardware: HardwareSpec,
        profiles: Optional[ProfileService] = None,
        slo: Optional[SLO] = None,
        seed: int = 0,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        self.tenants = list(tenants)
        self.hardware = hardware
        self.profiles = profiles if profiles is not None else ProfileService()
        self.slo = slo if slo is not None else SLO()
        self.policies = [
            OfflineHybridPolicy(t.model, self.profiles, self.slo.target_seconds,
                                hardware, t.temporal_fraction)
            for t in self.tenants
        ]
        self.sim = Simulator()
        self.cluster = Cluster(
            self.sim, self.profiles.catalog, self.profiles.interference, seed=seed
        )
        self.metrics = MetricsCollector()

    def execute(self) -> MetricsCollector:
        node = self.cluster.acquire(self.hardware, lambda n: None, instant=True)
        horizon = max(t.trace.duration for t in self.tenants)
        for tenant, policy in zip(self.tenants, self.policies):
            batch_size = policy.batch_size_on(self.hardware)
            # Generous warm pool: enough containers for peak concurrency.
            peak = tenant.trace.peak_rps
            node.pool(tenant.model.name).add_warm(
                max(4, math.ceil(peak * BATCH_WINDOW_SECONDS / batch_size) * 4)
            )
            table = WindowTable.plan(
                tenant.trace.arrivals, BATCH_WINDOW_SECONDS, tenant.model.max_batch
            )
            for i, at in enumerate(table.dispatch_at.tolist()):
                arrivals = table.arrivals[table.starts.item(i):table.ends.item(i)]
                self.sim.schedule_at(
                    at, lambda a=arrivals, p=policy: self._dispatch(a, p, node),
                    priority=10,
                )
            self.metrics.record_offered(tenant.trace.n_requests)
        self.sim.run(until=horizon + PINNED_DRAIN_GRACE_SECONDS)
        completed = self.metrics.completed_requests()
        self.metrics.record_unserved(
            max(0, self.metrics.total_requests_offered - completed)
        )
        return self.metrics

    # ------------------------------------------------------------------
    def _dispatch(
        self, arrivals: np.ndarray, policy: OfflineHybridPolicy, node: NodeInstance
    ) -> None:
        now = self.sim.now
        offset = 0
        for planned in policy.plan_window(arrivals.size, node.spec, 0.0, now).batches:
            batch = Batch(
                model=policy.model,
                arrivals=arrivals[offset : offset + planned.size],
                dispatched_at=now,
                mode=planned.mode,
                batch_id=next(self.cluster.batch_ids),
            )
            offset += planned.size
            batch.batching_wait = max(0.0, now - batch.first_arrival)
            self._submit(batch, node)

    def _submit(self, batch: Batch, node: NodeInstance) -> None:
        model = batch.model
        pool = node.pool(model.name)
        spec = node.spec

        def on_container(ticket) -> None:
            if ticket.cold:
                batch.cold_start_wait += ticket.wait
            else:
                batch.queue_delay += ticket.wait
            solo = self.profiles.solo_time(model, spec, batch.size)
            fbr = self.profiles.fbr(model, spec) if spec.is_gpu else 0.0

            def on_complete(batch: Batch) -> None:
                pool.release()
                self.metrics.record_batch(batch, node.node_id)

            batch.set_execution(solo, fbr, model.job_mem_gb(batch.size),
                                on_complete=on_complete)
            node.device.submit(batch)

        pool.request(on_container)


def cpu_vs_gpu_cost_example(
    model_name: str = "resnet50",
    gpu_name: str = "g3s.xlarge",
    cpu_name: str = "c6i.4xlarge",
    slo_seconds: float = 0.200,
    profiles: Optional[ProfileService] = None,
) -> dict[str, float]:
    """Section II's motivating arithmetic, from our own profiles.

    The paper observes that matching one GPU node's ResNet-50 throughput
    with CPU instances costs ~86% more.  This computes the same
    comparison against the reproduction's profile tables: how many CPU
    nodes are needed to match the GPU node's sweet-spot goodput, and the
    resulting cost premium.
    """
    profiles = profiles if profiles is not None else ProfileService()
    model = get_model(model_name)
    gpu = profiles.catalog.get(gpu_name)
    cpu = profiles.catalog.get(cpu_name)
    gpu_rps = profiles.sweet_spot_rps(model, gpu, slo_seconds)
    cpu_rps = profiles.capacity_rps(model, cpu, slo_seconds)
    if cpu_rps <= 0:
        raise ValueError(f"{cpu_name} cannot serve {model_name} at all")
    n_cpu_nodes = math.ceil(gpu_rps / cpu_rps)
    cpu_cost = n_cpu_nodes * cpu.price_per_hour
    return {
        "gpu_rps": gpu_rps,
        "cpu_rps_per_node": cpu_rps,
        "n_cpu_nodes": float(n_cpu_nodes),
        "gpu_cost_per_hour": gpu.price_per_hour,
        "cpu_cost_per_hour": cpu_cost,
        "cpu_premium": cpu_cost / gpu.price_per_hour - 1.0,
    }


@dataclass(frozen=True)
class MotivationOutcome:
    """One Fig 1 bar: per-model compliance and tail breakdown."""

    scheme: str
    hardware: str
    compliance_percent: dict[str, float]
    tail_breakdown_ms: dict[str, dict[str, float]]
    hourly_cost: float


def _scheme_settings(
    scheme: str, catalog
) -> tuple[HardwareSpec, float, float]:
    """(hardware, senet_fraction, densenet_fraction) for a Fig 1 scheme."""
    v100 = catalog.get("p3.2xlarge")
    m60 = catalog.get("g3s.xlarge")
    if scheme == "time_shared_P":
        return v100, 1.0, 1.0
    if scheme == "mps_only_P":
        return v100, 0.0, 0.0
    if scheme == "time_shared_$":
        return m60, 1.0, 1.0
    if scheme == "mps_only_$":
        return m60, 0.0, 0.0
    raise ValueError(f"unknown motivation scheme {scheme!r}")


def _make_tenants(
    fractions: tuple[float, float], duration: float, seed: int
) -> list[TenantSpec]:
    senet = get_model("senet18")
    densenet = get_model("densenet121")
    # The Wiki trace is "relatively stable": high plateau duty cycle.
    t_senet = wiki_trace(
        peak_rps=SENET_MEAN_RPS * 1.25,
        duration=duration,
        day_seconds=duration / 2,
        seed=seed,
        low_fraction=0.55,
    )
    t_dense = wiki_trace(
        peak_rps=DENSENET_MEAN_RPS * 1.25,
        duration=duration,
        day_seconds=duration / 2,
        seed=seed + 1,
        low_fraction=0.55,
    )
    return [
        TenantSpec(senet, t_senet, fractions[0]),
        TenantSpec(densenet, t_dense, fractions[1]),
    ]


def run_motivation_scheme(
    scheme: str,
    duration: float = 240.0,
    seed: int = 0,
    hybrid_fractions: Optional[tuple[float, float]] = None,
    profiles: Optional[ProfileService] = None,
) -> MotivationOutcome:
    """Run one Fig 1 scheme and report per-model compliance/breakdown."""
    profiles = profiles if profiles is not None else ProfileService()
    slo = SLO()
    if scheme == "offline_hybrid":
        if hybrid_fractions is None:
            hybrid_fractions = sweep_offline_hybrid(
                duration=duration, seed=seed, profiles=profiles
            )
        hw = profiles.catalog.get("g3s.xlarge")
        fractions = hybrid_fractions
    else:
        hw, f_s, f_d = _scheme_settings(scheme, profiles.catalog)
        fractions = (f_s, f_d)
    tenants = _make_tenants(fractions, duration, seed)
    run = PinnedColocationRun(tenants, hw, profiles, slo, seed=seed)
    metrics = run.execute()
    compliance = {}
    breakdown = {}
    for tenant in tenants:
        name = tenant.model.name
        lat = metrics.latencies(name)
        offered = tenant.trace.n_requests
        unserved = max(0, offered - metrics.completed_requests(name))
        compliance[name] = compliance_percent(lat, slo.target_seconds, unserved)
        breakdown[name] = dict(zip(
            ("min_possible_ms", "queueing_ms", "interference_ms"),
            paper_bars_ms(metrics.tail_breakdown(q=99.0, model=name)),
        ))
    return MotivationOutcome(
        scheme=scheme,
        hardware=hw.name,
        compliance_percent=compliance,
        tail_breakdown_ms=breakdown,
        hourly_cost=hw.price_per_hour,
    )


def sweep_offline_hybrid(
    duration: float = 240.0,
    seed: int = 0,
    grid: Sequence[float] = DEFAULT_FRACTION_GRID,
    profiles: Optional[ProfileService] = None,
) -> tuple[float, float]:
    """The offline sweep: per-model temporal fractions maximising overall
    SLO compliance on the M60 (Section II's 'numerous combinations ...
    beforehand').  Swept coordinate-wise to keep the grid tractable; each
    fraction pair is simulated once (the start pair recurs on axis 0, and
    the axis-0 winner on axis 1)."""
    profiles = profiles if profiles is not None else ProfileService()
    slo = SLO()
    m60 = profiles.catalog.get("g3s.xlarge")
    scores: dict[tuple[float, float], float] = {}

    def overall(fractions: tuple[float, float]) -> float:
        if fractions not in scores:
            tenants = _make_tenants(fractions, duration, seed)
            metrics = PinnedColocationRun(
                tenants, m60, profiles, slo, seed=seed
            ).execute()
            scores[fractions] = compliance_percent(
                metrics.latencies(), slo.target_seconds,
                metrics.unserved_requests,
            )
        return scores[fractions]

    best = (0.5, 0.5)
    best_score = overall(best)
    for axis in (0, 1):
        for frac in grid:
            cand = (frac, best[1]) if axis == 0 else (best[0], frac)
            score = overall(cand)
            if score > best_score:
                best, best_score = cand, score
    return best
