"""INFless/Llama request-serving policy (spatial-only MPS sharing).

The paper evaluates INFless and Llama through their shared serving
behaviour: every request batch is scheduled onto the GPU *concurrently* via
MPS, with no awareness of the job interference this creates — a batch is
admitted if it could run within the SLO *in isolation* (Section V,
"Evaluated schemes").

Two hardware variants:

* ``($)`` — cost-effective: picks the cheapest node able to serve **one
  batch in isolation** at the current measured request rate within the SLO
  (interference- and queueing-agnostic capacity reasoning);
* ``(P)`` — performant: always the most performant GPU (the V100),
  regardless of rate.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional

from repro.baselines.base import HysteresisGate, Policy, WindowPlan
from repro.core.predictor import EWMAPredictor
from repro.framework.request import ShareMode
from repro.hardware.catalog import HardwareSpec
from repro.hardware.profiles import ProfileService
from repro.workloads.models import ModelSpec

__all__ = ["InflessLlamaPolicy"]


class InflessLlamaPolicy(Policy):
    """MPS-only spatial sharing, interference-agnostic.

    Parameters
    ----------
    cost_effective:
        True for the ``($)`` variant, False for ``(P)``.
    """

    def __init__(
        self,
        model: ModelSpec,
        profiles: ProfileService,
        slo_seconds: float,
        cost_effective: bool = True,
        wait_limit: int = 3,
    ) -> None:
        super().__init__(model, profiles, slo_seconds)
        self.cost_effective = bool(cost_effective)
        self.name = "infless_llama_$" if cost_effective else "infless_llama_P"
        self.predictor = EWMAPredictor()
        self._gate = HysteresisGate(wait_limit)

    # ------------------------------------------------------------------
    def observe_rate(self, rate_rps: float, now: float) -> None:
        self.predictor.observe(rate_rps, now)

    def _believed_capacity(self, hw: HardwareSpec) -> float:
        """The schemes' interference-agnostic capacity estimate.

        A batch is admitted if it runs within the SLO *in isolation*, and
        MPS co-location is assumed free: the believed sustainable rate of a
        GPU is its isolated batched throughput times however many batches
        fit in device memory.  (This optimism is exactly the blindness the
        paper attributes to INFless/Llama; Molecule (beta) inherits the
        same hardware rule per Section V, which is why its time-shared GPU
        ends up queueing.)"""
        base = self.profiles.capacity_rps(self.model, hw, self.slo_seconds)
        if base <= 0.0:
            return 0.0
        if hw.is_gpu:
            base *= self.profiles.max_coresident(self.model, hw)
        return base

    @cached_property
    def _by_cost(self) -> tuple[tuple[HardwareSpec, float], ...]:
        """``(hw, believed capacity)`` cheapest first: a pure function of
        the catalog, the model's profiles and the SLO, resolved once."""
        return tuple(
            (hw, self._believed_capacity(hw))
            for hw in self.profiles.catalog.by_cost()
        )

    @cached_property
    def _by_perf(self) -> tuple[HardwareSpec, ...]:
        """The GPUs fastest first, then every node fastest first (stable
        sorts, so ties keep catalog order)."""
        catalog = self.profiles.catalog
        return tuple(
            sorted(catalog.gpus(), key=lambda h: h.perf_rank)
            + sorted(catalog.by_cost(), key=lambda h: h.perf_rank)
        )

    def _cheapest_isolation_capable(
        self,
        rate: float,
        is_available: Callable[[HardwareSpec], bool],
    ) -> HardwareSpec:
        """Cheapest node whose *believed* (interference/queueing-agnostic)
        capacity covers the current rate (Section V's hardware rule for the
        cost-effective variants)."""
        fastest: Optional[HardwareSpec] = None
        for hw, cap in self._by_cost:
            if not is_available(hw):
                continue
            if cap > 0.0 and cap >= rate:
                return hw
            if fastest is None or hw.perf_rank < fastest.perf_rank:
                fastest = hw
        if fastest is None:
            raise RuntimeError("no available hardware")
        # Nothing believes it can keep up: take the fastest node.
        return fastest

    def _performant(
        self, is_available: Callable[[HardwareSpec], bool]
    ) -> HardwareSpec:
        """The fastest available GPU, else the fastest available node."""
        for hw in self._by_perf:
            if is_available(hw):
                return hw
        raise RuntimeError("no available hardware")

    # ------------------------------------------------------------------
    def initial_hardware(self, rate_hint_rps: float) -> HardwareSpec:
        if not self.cost_effective:
            return self.profiles.catalog.most_performant_gpu()
        self.predictor.observe(rate_hint_rps, 0.0)
        return self._cheapest_isolation_capable(rate_hint_rps, lambda hw: True)

    def desired_hardware(
        self,
        now: float,
        current: Optional[HardwareSpec],
        existing_fbr: float,
        backlog_requests: int,
        is_available: Callable[[HardwareSpec], bool],
    ) -> Optional[HardwareSpec]:
        # backlog_requests is deliberately unused: these schemes are
        # queueing/interference agnostic (Section V).
        if self.cost_effective:
            rate = self.predictor.predict(now, 4.0)
            desired = self._cheapest_isolation_capable(rate, is_available)
        else:
            desired = self._performant(is_available)
        return desired if self._gate.propose(current, desired) else None

    # ------------------------------------------------------------------
    def plan_window(
        self,
        n: int,
        hw: HardwareSpec,
        existing_fbr: float,
        now: float,
        existing_queue: int = 0,
    ) -> WindowPlan:
        batch = self.batch_size_on(hw)
        if not hw.is_gpu:
            return self.plan_one_mode(n, batch, ShareMode.TEMPORAL)
        # Everything is co-located via MPS, whatever the consequences.
        return self.plan_one_mode(n, batch, ShareMode.SPATIAL)
