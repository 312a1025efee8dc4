"""Workload/hardware performance profiles.

The paper's provider "profiles workloads by observing their execution
latency values (and other relevant metrics) on various available hardware
configurations" (Section IV-A).  This module is that profiling database:
given a model's V100 anchors (``repro.workloads.models``) and a node spec
(``repro.hardware.catalog``), it derives

* ``solo_time(model, hw, batch)`` — isolated batch execution latency,
* ``fbr(model, hw)`` — the per-GPU Fractional Bandwidth Requirement,
* ``max_coresident(model, hw)`` — the MPS co-residency bound implied by
  device memory,
* ``best_batch(model, hw, slo)`` — the paper's flexible batch sizing
  (largest batch whose solo latency stays inside the 50-200 ms envelope),
* ``capacity_rps`` / ``sweet_spot_rps`` — sustainable goodput under pure
  time sharing and at the MPS bandwidth knee, used to prune the hardware
  search space (``get_hw_pool``).

Scaling laws
------------
Solo latency scales inversely with the node's ``speed_factor``:

    solo(b, hw) = (base_v100 + b / thpt_v100) / speed_factor(hw)

FBR scales with *relative* pressure: a slower device issues memory traffic
more slowly (x ``speed_factor``) but also has less bandwidth to offer
(x ``bw_v100 / bw(hw)``):

    fbr(hw) = min(cap, fbr_v100 * speed_factor(hw) * 900 / bw(hw))

which yields the paper-consistent ordering: a model that needs 35% of the
V100's bandwidth needs ~79% of the M60's and ~37% of the K80's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.hardware.catalog import HardwareCatalog, HardwareSpec, default_catalog
from repro.simulator.interference import DEFAULT_INTERFERENCE, InterferenceModel
from repro.workloads.models import ModelSpec

__all__ = ["HardwarePoolTable", "ProfileService", "V100_BANDWIDTH_GBPS", "FBR_CAP"]

#: Bandwidth of the anchor device (the V100's HBM2).
V100_BANDWIDTH_GBPS = 900.0

#: FBR values are capped below 1: a single batch cannot demand more than
#: the device's bandwidth — its profiled solo time already reflects running
#: at the device's full capability.  (Near-1 FBRs mean *any* co-location
#: saturates the device, which is how the very-high-FBR language models
#: behave.)
FBR_CAP = 0.95

#: Fraction of device memory usable for batches (the rest is runtime/CUDA
#: context overhead).
_MEMORY_USABLE_FRACTION = 0.9


class HardwarePoolTable(NamedTuple):
    """``get_hw_pool`` with everything profiled resolved: the capable
    nodes cheapest-first as ``(hw, sweet_spot_rps, headroom)`` rows (the
    GPU or CPU headroom, as applies), and the fallback node."""

    rows: tuple[tuple[HardwareSpec, float, float], ...]
    fallback: HardwareSpec

    def admit(self, predicted_rps: float) -> list[HardwareSpec]:
        """The rows that cover ``predicted_rps`` with headroom, or ``[fallback]``."""
        if predicted_rps < 0:
            raise ValueError("predicted rate cannot be negative")
        pool = [hw for hw, sweet, headroom in self.rows
                if sweet >= predicted_rps * headroom]
        return pool if pool else [self.fallback]


@dataclass
class ProfileService:
    """Profiled performance knowledge for (model, hardware) pairs.

    Parameters
    ----------
    catalog:
        Hardware catalog to profile against.
    interference:
        The profiled interference curvature.  The provider measures this
        offline (Section III); the simulator's ground truth uses the same
        functional form plus run-time noise the profiles cannot see.
    batch_latency_budget:
        Fraction of the SLO the flexible batcher budgets for the *solo*
        execution of one batch; the remainder is slack for queueing and
        interference.  The paper keeps batch latencies between ~50-200 ms
        against a 200 ms SLO, i.e. solo execution may consume the whole SLO
        at the largest batch; scheduling slack then comes from smaller
        batches, which this budget enforces.
    """

    catalog: HardwareCatalog = field(default_factory=default_catalog)
    interference: InterferenceModel = DEFAULT_INTERFERENCE
    batch_latency_budget: float = 0.55
    #: The gateway's batching window.  GPU capacity is window-consistent:
    #: a device serving rate ``r`` sees batches of ``r * window`` requests,
    #: so per-batch fixed overhead bounds throughput at small windows.
    dispatch_window_seconds: float = 0.075
    #: Memoised :class:`HardwarePoolTable` per (model, slo, headrooms) —
    #: pure functions of the profiles.  ``get_hw_pool`` runs every
    #: monitoring tick with a continuously-varying rate, but the rate
    #: only enters a final comparison; everything profiled is cacheable.
    _pool_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Primitive profiled quantities
    # ------------------------------------------------------------------
    def solo_time(self, model: ModelSpec, hw: HardwareSpec, batch: int) -> float:
        """Isolated execution latency (seconds) of a ``batch`` on ``hw``.

        Linear in batch size with a fixed per-batch overhead, both scaled by
        the node's speed factor — the standard shape of profiled batched
        inference latency curves.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        return (model.base_s_v100 + batch * model.per_item_s_v100) / hw.speed_factor

    def fbr(self, model: ModelSpec, hw: HardwareSpec) -> float:
        """Fractional Bandwidth Requirement of one batch of ``model`` on the
        GPU node ``hw``.  Raises for CPU nodes (FBR is a GPU concept)."""
        if not hw.is_gpu:
            raise ValueError(f"FBR is undefined for CPU node {hw.name}")
        raw = (
            model.fbr_v100
            * hw.speed_factor
            * (V100_BANDWIDTH_GBPS / hw.mem_bandwidth_gbps)
        )
        return min(FBR_CAP, raw)

    def max_coresident(
        self, model: ModelSpec, hw: HardwareSpec, batch: Optional[int] = None
    ) -> int:
        """How many batches of ``model`` can co-reside on ``hw`` under MPS,
        bounded by device memory (each resident batch pins the model
        weights plus its activations)."""
        usable = hw.memory_gb * _MEMORY_USABLE_FRACTION
        per = model.job_mem_gb(batch if batch is not None else model.max_batch)
        return max(1, int(usable // per))

    # ------------------------------------------------------------------
    # Flexible batch sizing (Section IV-B)
    # ------------------------------------------------------------------
    def best_batch(
        self, model: ModelSpec, hw: HardwareSpec, slo_seconds: float
    ) -> int:
        """Largest batch whose solo latency fits the batching budget.

        Returns 0 when even a single request cannot execute within the SLO
        on this node (the node is incapable for this model).
        """
        if self.solo_time(model, hw, 1) > slo_seconds:
            return 0
        budget = slo_seconds * self.batch_latency_budget
        # solve base + b*per_item <= budget * speed
        per_item = model.per_item_s_v100
        b = (budget * hw.speed_factor - model.base_s_v100) / per_item
        b = int(min(model.max_batch, math.floor(b)))
        return max(1, b)

    # ------------------------------------------------------------------
    # Capacity estimates (search-space pruning, Section III)
    # ------------------------------------------------------------------
    def capacity_rps(
        self, model: ModelSpec, hw: HardwareSpec, slo_seconds: float
    ) -> float:
        """Sustainable request rate under pure time sharing (requests/s).

        For CPU nodes this multiplies by the node's parallel lanes (the
        framework's batched CPU mode runs one batch per container lane).
        """
        b = self.best_batch(model, hw, slo_seconds)
        if b == 0:
            return 0.0
        thpt = b / self.solo_time(model, hw, b)
        if not hw.is_gpu:
            return thpt * hw.cpu_lanes
        # Window consistency: at rate r the batcher hands the device
        # batches of r*w requests every w seconds; keeping up requires
        # solo(r*w) <= w, i.e. r <= (w - base_hw) / (w * per_item_hw).
        w = self.dispatch_window_seconds
        base_hw = model.base_s_v100 / hw.speed_factor
        per_item_hw = model.per_item_s_v100 / hw.speed_factor
        if w > base_hw:
            window_bound = (w - base_hw) / (w * per_item_hw)
            thpt = min(thpt, window_bound)
        else:
            thpt = 0.0
        return thpt

    def sweet_spot_rps(
        self, model: ModelSpec, hw: HardwareSpec, slo_seconds: float
    ) -> float:
        """Peak sustainable rate using MPS up to the bandwidth knee.

        Co-locating ``k`` batches multiplies throughput by ``k`` until
        aggregate FBR reaches the knee; past it, super-linear interference
        makes throughput *decrease*.  The maximum is therefore at
        ``k = knee / fbr`` (bounded by memory co-residency), i.e.
        ``capacity / min(fbr, knee)`` for fbr below the knee.
        """
        base = self.capacity_rps(model, hw, slo_seconds)
        if base == 0.0 or not hw.is_gpu:
            return base
        f = self.fbr(model, hw)
        k_knee = self.interference.knee / f
        k_mem = float(self.max_coresident(model, hw))
        k = max(1.0, min(k_knee, k_mem))
        return base * k

    # ------------------------------------------------------------------
    # Hardware pool (Algorithm 1's get_HW_pool)
    # ------------------------------------------------------------------
    def get_hw_pool(
        self,
        model: ModelSpec,
        predicted_rps: float,
        slo_seconds: float,
        headroom: float = 1.25,
        cpu_headroom: float = 1.5,
    ) -> list[HardwareSpec]:
        """Candidate nodes able to serve ``predicted_rps`` within the SLO.

        A node qualifies when its sweet-spot goodput covers the predicted
        rate with ``headroom``.  CPU nodes get a larger margin
        (``cpu_headroom``): they are the slowest to escape from once a ramp
        outruns them, so they only qualify for comfortably low rates ("CPU
        nodes handle lower request rates", Section IV-A).  The pool is
        returned cheapest-first (Algorithm 1 sorts by cost ascending).  If
        *no* node qualifies — the resource-exhaustion regime of Fig 13a —
        the most performant node(s) are returned so the framework degrades
        instead of refusing.
        """
        table = self.hw_pool_table(model, slo_seconds, headroom, cpu_headroom)
        return table.admit(predicted_rps)

    def hw_pool_table(self, model: ModelSpec, slo_seconds: float,
                      headroom: float = 1.25, cpu_headroom: float = 1.5,
                      ) -> HardwarePoolTable:
        """The memoised table behind :meth:`get_hw_pool` (a caller asking
        every tick resolves it once and calls its ``admit``)."""
        key = (model, slo_seconds, headroom, cpu_headroom)
        table = self._pool_cache.get(key)
        if table is None:
            sweets = [
                (hw, self.sweet_spot_rps(model, hw, slo_seconds))
                for hw in self.catalog.by_cost()
            ]
            fallback = min(
                self.catalog,
                key=lambda h: (
                    -self.sweet_spot_rps(model, h, slo_seconds),
                    h.price_per_hour,
                ),
            )
            table = self._pool_cache[key] = HardwarePoolTable(
                tuple(
                    (hw, sweet, headroom if hw.is_gpu else cpu_headroom)
                    for hw, sweet in sweets
                    if sweet > 0.0
                ),
                fallback,
            )
        return table

    def capable(
        self,
        model: ModelSpec,
        hw: HardwareSpec,
        rps: float,
        slo_seconds: float,
        headroom: float = 1.0,
    ) -> bool:
        """Whether ``hw`` can sustain ``rps`` for ``model`` within the SLO."""
        return self.sweet_spot_rps(model, hw, slo_seconds) >= rps * headroom

    # ------------------------------------------------------------------
    # Introspection / reporting
    # ------------------------------------------------------------------
    def profile_row(
        self, model: ModelSpec, hw: HardwareSpec, slo_seconds: float
    ) -> dict[str, float | str | int]:
        """One row of the profiling table (used by reports and examples)."""
        b = self.best_batch(model, hw, slo_seconds)
        row: dict[str, float | str | int] = {
            "model": model.name,
            "hardware": hw.name,
            "best_batch": b,
            "solo_ms": self.solo_time(model, hw, b) * 1e3 if b else float("inf"),
            "capacity_rps": self.capacity_rps(model, hw, slo_seconds),
            "sweet_spot_rps": self.sweet_spot_rps(model, hw, slo_seconds),
        }
        if hw.is_gpu:
            row["fbr"] = self.fbr(model, hw)
            row["max_coresident"] = self.max_coresident(model, hw)
        return row
