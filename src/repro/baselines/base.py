"""Scheduling-policy interface shared by Paldia and every baseline.

A policy makes exactly two kinds of decisions, mirroring how the paper
frames the design space:

* **hardware** — which node shape should serve the model, re-examined every
  monitoring interval (``desired_hardware``), and
* **job distribution** — how a dispatch window's ``N`` requests split into
  spatial (MPS) and temporal (queued) sub-batches (``plan_window``).

Everything else — containers, provisioning, cost metering, failure
handling — is the framework's job and identical across schemes, so
differences in results are attributable to the policies alone, as in the
paper's evaluation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from repro.framework.batching import carve_sizes
from repro.framework.request import ShareMode
from repro.hardware.catalog import HardwareSpec
from repro.hardware.profiles import ProfileService
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.workloads.models import ModelSpec

__all__ = ["PlannedBatch", "WindowPlan", "Policy", "HysteresisGate", "split_plan"]


@dataclass(frozen=True)
class PlannedBatch:
    """One sub-batch of a dispatch window: how many requests, which mode."""

    size: int
    mode: str


@dataclass(frozen=True)
class WindowPlan:
    """A policy's split decision for one dispatch window.

    ``batches`` covers the window's requests in order — spatial sub-batches
    first, temporal afterwards (temporal requests are by definition the ones
    that wait).
    """

    batches: tuple[PlannedBatch, ...]
    y: int
    predicted_t_max: Optional[float] = None

    # Derived views are cached: plans are immutable values that policies
    # memoise and replay across windows, and the framework reads these on
    # every dispatch.
    @cached_property
    def n(self) -> int:
        """Total requests covered by the plan."""
        return sum(b.size for b in self.batches)

    @cached_property
    def n_spatial_batches(self) -> int:
        """Number of MPS (spatial) sub-batches."""
        return sum(1 for b in self.batches if b.mode == ShareMode.SPATIAL)

    @cached_property
    def has_temporal(self) -> bool:
        """Whether any sub-batch waits in the device FIFO."""
        return any(b.mode == ShareMode.TEMPORAL for b in self.batches)


def split_plan(
    n: int, y: int, batch_size: int, predicted_t_max: Optional[float] = None
) -> WindowPlan:
    """Job Distribution's carve of one window: ``n - y`` requests into
    spatial sub-batches of at most ``batch_size``, then ``y`` into
    temporal ones (``y = 0`` and ``y = n`` are the one-mode plans)."""
    return WindowPlan(
        batches=tuple(
            [PlannedBatch(s, ShareMode.SPATIAL)
             for s in carve_sizes(n - y, batch_size)]
            + [PlannedBatch(s, ShareMode.TEMPORAL)
               for s in carve_sizes(y, batch_size)]
        ),
        y=y,
        predicted_t_max=predicted_t_max,
    )


class HysteresisGate:
    """The paper's ``wait_ctr`` mechanism, reusable by every policy.

    A hardware change is only released after ``wait_limit`` consecutive
    ticks proposing a mismatch.  De-escalations (moving to a *less*
    performant node) are damped harder (``wait_limit_down``): giving up a
    fast node on a noisy dip strands the next surge, while holding it a
    few extra seconds costs fractions of a cent.  All schemes share this
    stabiliser so the evaluation isolates the scheduling policies, not
    churn resistance."""

    def __init__(self, wait_limit: int = 3, wait_limit_down: int = 20) -> None:
        self.wait_limit = int(wait_limit)
        self.wait_limit_down = int(wait_limit_down)
        self._ctr = 0

    def propose(self, current: Optional[HardwareSpec], desired: HardwareSpec) -> bool:
        """Returns True when the switch to ``desired`` should happen now."""
        if current is not None and desired.name == current.name:
            self._ctr = 0
            return False
        self._ctr += 1
        escalating = current is None or desired.perf_rank < current.perf_rank
        limit = self.wait_limit if escalating else self.wait_limit_down
        if current is None or self._ctr >= limit:
            self._ctr = 0
            return True
        return False

    def reset(self) -> None:
        self._ctr = 0


class Policy(ABC):
    """Base class for request-serving schemes.

    Parameters
    ----------
    model / profiles / slo_seconds:
        Workload, profiling database, and the SLO.

    Attributes
    ----------
    instant_switch:
        When True the framework skips provisioning delay and transition
        overlap (only the clairvoyant Oracle sets this).
    """

    name: str = "abstract"
    instant_switch: bool = False
    #: Cache pure profile lookups (``batch_size_on``) and carved window
    #: plans (``plan_one_mode``).  Policies exposing an uncached reference
    #: mode (Paldia's ``vectorized=False``) flip this off so the seed's
    #: call pattern is reproduced exactly.
    _memoize_profiles: bool = True

    def __init__(
        self,
        model: ModelSpec,
        profiles: ProfileService,
        slo_seconds: float,
    ) -> None:
        self.model = model
        self.profiles = profiles
        self.slo_seconds = float(slo_seconds)
        self._batch_size_cache: dict[str, int] = {}
        self._plan_cache: dict[tuple[int, int, str], WindowPlan] = {}
        #: Decision-audit sink (disabled by default; the framework binds
        #: the run's tracer before the first decision is made).
        self.tracer: Tracer = NULL_TRACER

    def bind_tracer(self, tracer: Tracer) -> None:
        """Attach the run's tracer.  Policies owning nested decision
        components (Paldia's :class:`~repro.core.hardware_selection.
        HardwareSelector`) override this to propagate the handle."""
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Rate observations (default: ignore; prediction-based policies use it)
    # ------------------------------------------------------------------
    def observe_rate(self, rate_rps: float, now: float) -> None:
        """Feed one observed per-interval request rate."""

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    @abstractmethod
    def initial_hardware(self, rate_hint_rps: float) -> HardwareSpec:
        """Node shape to warm-start the run with, given the trace's
        opening request rate."""

    @abstractmethod
    def desired_hardware(
        self,
        now: float,
        current: Optional[HardwareSpec],
        existing_fbr: float,
        backlog_requests: int,
        is_available: Callable[[HardwareSpec], bool],
    ) -> Optional[HardwareSpec]:
        """Hardware this policy wants, or None to keep the current node.

        Called once per monitoring interval with the device's current
        residency (``existing_fbr``) and software-queue depth
        (``backlog_requests`` — Algorithm 1's ``curr_queue_info``).
        Implementations apply their own hysteresis; returning a spec
        different from ``current`` makes the framework start a (background)
        reconfiguration.
        """

    @abstractmethod
    def plan_window(
        self,
        n: int,
        hw: HardwareSpec,
        existing_fbr: float,
        now: float,
        existing_queue: int = 0,
    ) -> WindowPlan:
        """Split a dispatch window's ``n`` requests into sub-batches.

        ``existing_fbr`` and ``existing_queue`` describe the target
        device's current residency and FIFO depth (Paldia's Equation-(1)
        solve consumes them; agnostic baselines ignore them)."""

    # ------------------------------------------------------------------
    def batch_size_on(self, hw: HardwareSpec) -> int:
        """The flexible batch size this policy uses on ``hw``.

        A pure function of ``(model, hw, slo)``, so the answer is memoised
        per hardware unless the policy runs in reference mode."""
        if self._memoize_profiles:
            b = self._batch_size_cache.get(hw.name)
            if b is not None:
                return b
        b = self.profiles.best_batch(self.model, hw, self.slo_seconds)
        b = b if b > 0 else 1
        if self._memoize_profiles:
            self._batch_size_cache[hw.name] = b
        return b

    def plan_one_mode(self, n: int, batch_size: int, mode: str) -> WindowPlan:
        """``n`` requests carved into ``mode`` sub-batches of at most
        ``batch_size`` (the all-spatial or all-temporal plan).

        A pure function of its arguments, so the plan (a frozen value) is
        memoised per ``(n, batch_size, mode)`` unless the policy runs in
        reference mode, where every call carves a fresh one."""
        key = (n, batch_size, mode)
        if self._memoize_profiles:
            plan = self._plan_cache.get(key)
            if plan is not None:
                return plan
        plan = split_plan(
            n, n if mode == ShareMode.TEMPORAL else 0, batch_size
        )
        if self._memoize_profiles:
            self._plan_cache[key] = plan
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(model={self.model.name})"
