"""The Paldia policy: Algorithm 1 hardware selection + Equation (1) splits.

This is the paper's primary contribution assembled from the core modules:

* an EWMA :class:`~repro.core.predictor.EWMAPredictor` forecasts request
  rates (pluggable — the Oracle swaps in clairvoyance);
* :class:`~repro.core.hardware_selection.HardwareSelector` runs Algorithm 1
  each monitoring interval (candidate pool, per-GPU y-sweep, 50 ms
  cost/performance window, 3-strike hysteresis);
* ``plan_window`` runs the Equation-(1) solve against the *actual* number of
  outstanding requests and the device's current residency, then carves the
  window into spatial and temporal sub-batches for the Job Distributor.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.baselines.base import Policy, WindowPlan, split_plan
from repro.core._reference_model import reference_optimal_split
from repro.core.hardware_selection import HardwareSelector
from repro.core.model import optimal_split
from repro.core.predictor import EWMAPredictor, RatePredictor
from repro.framework.request import ShareMode
from repro.hardware.catalog import HardwareSpec
from repro.hardware.profiles import ProfileService
from repro.workloads.models import ModelSpec

__all__ = ["PaldiaPolicy"]


class PaldiaPolicy(Policy):
    """Hybrid spatio-temporal scheduling on prudently selected hardware.

    Parameters
    ----------
    predictor:
        Rate predictor; defaults to a fresh EWMA.  The Oracle baseline
        passes a clairvoyant predictor instead.
    wait_limit / perf_slack_seconds / lookahead_seconds:
        Algorithm 1 knobs (defaults follow the paper: 3 strikes, ~50 ms,
        ~4 s).
    latency_budget_fraction:
        Fraction of the SLO that predicted T_max may consume.
    vectorized:
        Run the columnar/memoised hot path (default).  ``False`` restores
        the seed's uncached scalar scan and per-call Equation-(1) solves —
        the oracle the golden bit-identity suite compares against.
    """

    name = "paldia"

    def __init__(
        self,
        model: ModelSpec,
        profiles: ProfileService,
        slo_seconds: float,
        predictor: Optional[RatePredictor] = None,
        wait_limit: int = 3,
        wait_limit_down: int = 20,
        perf_slack_seconds: float = 0.050,
        lookahead_seconds: float = 4.0,
        plan_horizon_seconds: float = 0.1,
        latency_budget_fraction: float = 0.85,
        occupancy_cap_knees: float = 2.0,
        vectorized: bool = True,
    ) -> None:
        super().__init__(model, profiles, slo_seconds)
        self.predictor = predictor if predictor is not None else EWMAPredictor()
        self.vectorized = bool(vectorized)
        self._memoize_profiles = self.vectorized
        self.selector = HardwareSelector(
            model=model,
            profiles=profiles,
            predictor=self.predictor,
            slo_seconds=slo_seconds,
            lookahead_seconds=lookahead_seconds,
            plan_horizon_seconds=plan_horizon_seconds,
            perf_slack_seconds=perf_slack_seconds,
            wait_limit=wait_limit,
            wait_limit_down=wait_limit_down,
            latency_budget_fraction=latency_budget_fraction,
            vectorized=vectorized,
        )
        self.latency_budget_fraction = float(latency_budget_fraction)
        self.occupancy_cap_knees = float(occupancy_cap_knees)
        #: Memoised Equation-(1) decisions, keyed on the exact solve
        #: inputs that vary at run time: ``[decision, plan, payload]``,
        #: the payload of the decision's ``job_distribution.split`` events
        #: filled in by the first traced call (``None`` until then).
        #: Residency (``existing_fbr``) is quantised (multiples of the
        #: per-hw FBR) and queues are small integers, so steady traffic
        #: hits the same handful of keys; plans are frozen values, safe
        #: to share.
        self._split_cache: dict[tuple, list] = {}

    def bind_tracer(self, tracer) -> None:
        super().bind_tracer(tracer)
        self.selector.tracer = tracer

    # ------------------------------------------------------------------
    def observe_rate(self, rate_rps: float, now: float) -> None:
        self.predictor.observe(rate_rps, now)

    def initial_hardware(self, rate_hint_rps: float) -> HardwareSpec:
        """Warm-start: run one Algorithm 1 pass against the opening rate."""
        self.predictor.observe(rate_hint_rps, 0.0)
        outcome = self.selector.tick(0.0, current_hw=None)
        self.selector._wait_ctr = 0  # the warm start is not a mismatch
        return outcome.chosen

    def desired_hardware(
        self,
        now: float,
        current: Optional[HardwareSpec],
        existing_fbr: float,
        backlog_requests: int,
        is_available: Callable[[HardwareSpec], bool],
    ) -> Optional[HardwareSpec]:
        outcome = self.selector.tick(
            now, current, existing_fbr, backlog_requests, is_available
        )
        return outcome.chosen if outcome.switch_requested else None

    def _effective_solo(self, hw: HardwareSpec, batch: int) -> float:
        """Solo latency the split model plans with.  The base policy uses
        the profiled value; the contention-aware extension inflates it."""
        return self.profiles.solo_time(self.model, hw, batch)

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
            # CPU nodes use the framework's batched CPU mode; modes are
            # ignored by the device, lanes do the parallelism.
            return self.plan_one_mode(n, batch, ShareMode.TEMPORAL)
        solo = self._effective_solo(hw, batch)
        key = (hw.name, n, batch, solo, existing_fbr, existing_queue)
        cached = self._split_cache.get(key) if self.vectorized else None
        if cached is None:
            # Reference mode pays the seed's exact per-call solve cost;
            # both solvers return bit-identical decisions.
            solver = optimal_split if self.vectorized else reference_optimal_split
            decision = solver(
                n=n,
                batch_size=batch,
                solo=solo,
                fbr=self.profiles.fbr(self.model, hw),
                slo_seconds=self.slo_seconds * self.latency_budget_fraction,
                interference=self.profiles.interference,
                existing_fbr=existing_fbr,
                existing_queue=existing_queue,
                max_coresident=self.profiles.max_coresident(self.model, hw),
                max_total_fbr=self.occupancy_cap_knees
                * self.profiles.interference.knee,
                solo_single=self.profiles.solo_time(self.model, hw, 1),
            )
            plan = split_plan(n, decision.y, batch, decision.t_max)
            cached = [decision, plan, None]
            if self.vectorized:
                if len(self._split_cache) >= 4096:
                    self._split_cache.clear()
                self._split_cache[key] = cached
        if self.tracer.enabled:
            # The split event's payload is a function of the key, built
            # once per memoised decision and shared by its events.
            if cached[2] is None:
                decision = cached[0]
                cached[2] = {
                    "hardware": hw.name,
                    "n": n,
                    "y": decision.y,
                    "n_spatial": decision.n_spatial,
                    "batch_size": decision.batch_size,
                    "t_max": decision.t_max,
                    "feasible": decision.feasible,
                    "existing_fbr": existing_fbr,
                    "existing_queue": existing_queue,
                }
            self.tracer.event("job_distribution.split", now, cached[2],
                              cat="decision")
        return cached[1]
