"""Deadline-aware retry, circuit breaking, and graceful degradation.

The legacy failover path handles a node outage in exactly one way: evict
everything, merge it into a single pending window, and redispatch on the
failover node.  That is the right default for the Fig 13b study, but a
general fleet policy needs three more tools:

* **Deadline-aware retry** — a failed batch is retried with exponential
  backoff and *decorrelated jitter* (the AWS architecture-blog variant:
  each sleep is drawn from ``uniform(base, prev * 3)``, capped), but a
  retry is **never scheduled past its request's SLO deadline**.  A retry
  that cannot land inside the remaining SLO budget is abandoned — paying
  dispatch cost for a guaranteed violation only adds interference for
  requests that can still make it.
* **Per-target circuit breaker** — repeated failures against one hardware
  target trip its breaker ``CLOSED → OPEN``; while open, dispatches to
  the target are refused outright (no retry storms into a dead node).
  After ``cooldown_seconds`` the breaker lets a limited number of probe
  dispatches through (``HALF_OPEN``); a probe success closes it, a probe
  failure re-opens it for another cooldown.
* **Graceful degradation** — while any breaker is open the framework
  sheds requests whose deadline has already passed (lowest slack first —
  they are lost either way), caps batch sizes, and can force
  temporal-only execution, trading throughput for predictability until
  the fleet heals.

All randomness flows through one seeded :class:`random.Random` owned by
the :class:`ResilienceController`, so a resilient run replays
bit-identically for a fixed ``(config, seed)`` — the same contract the
chaos engine pins.

Everything configurable is a frozen dataclass
(:class:`RetryPolicy` / :class:`BreakerPolicy` / :class:`ResilienceConfig`)
so a config embedded in a ``RunConfig`` stays hashable for the
experiment result cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.observers import RunObservers

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "ResilienceConfig",
    "ResilienceController",
    "RetryPolicy",
]


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with decorrelated jitter, deadline-clamped.

    Attributes
    ----------
    max_attempts:
        Total dispatch attempts per batch (first try included), so
        ``max_attempts=3`` allows two retries.
    base_backoff_seconds:
        Floor of every backoff draw (first retry waits at least this).
    max_backoff_seconds:
        Cap on any single backoff.
    jitter:
        With jitter (default) each backoff is drawn uniformly from
        ``[base, min(cap, prev * 3)]``; without, it is the deterministic
        envelope ``min(cap, prev * 3)``.
    """

    max_attempts: int = 3
    base_backoff_seconds: float = 0.010
    max_backoff_seconds: float = 2.0
    jitter: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_backoff_seconds <= 0:
            raise ValueError("base backoff must be positive")
        if self.max_backoff_seconds < self.base_backoff_seconds:
            raise ValueError("backoff cap must be >= base")


@dataclass(frozen=True)
class BreakerPolicy:
    """Trip/cooldown parameters for per-target circuit breakers."""

    failure_threshold: int = 3
    cooldown_seconds: float = 10.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.cooldown_seconds <= 0:
            raise ValueError("cooldown must be positive")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be at least 1")


@dataclass(frozen=True)
class ResilienceConfig:
    """The full recovery policy for one run.

    ``recovery`` selects what happens to work evicted by a fault:

    * ``"requeue"`` — the legacy behaviour (and the default): evicted
      arrivals merge into one pending window and redispatch immediately
      on the failover node.  With no chaos spec configured this mode is
      bit-identical to the pre-resilience framework.
    * ``"drop"`` — evicted work is lost (the no-recovery baseline the
      ``resilience`` experiment compares against).
    * ``"retry"`` — evicted work is retried per :attr:`retry`, gated by
      the per-target breakers in :attr:`breaker`.
    """

    recovery: str = "requeue"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    #: While degraded, cap planned sub-batch sizes at this many requests.
    degraded_batch_cap: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.recovery not in ("requeue", "drop", "retry"):
            raise ValueError(
                "recovery must be one of 'requeue', 'drop', 'retry'"
            )
        if self.degraded_batch_cap < 1:
            raise ValueError("degraded_batch_cap must be at least 1")


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """CLOSED / OPEN / HALF_OPEN breaker for one hardware target.

    The state machine is time-lazy: ``OPEN → HALF_OPEN`` happens inside
    :meth:`allow` once the cooldown has elapsed, so no simulator events
    are needed and an idle breaker costs nothing.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        target: str,
        policy: BreakerPolicy,
        *,
        obs: Optional["RunObservers"] = None,
    ) -> None:
        self.target = target
        self.policy = policy
        #: The run's observer bundle; ``None`` (untraced) costs one
        #: ``is None`` branch per state transition.
        self.obs = obs
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self._probes_in_flight = 0

    # ------------------------------------------------------------------
    def _transition(self, state: str, now: float) -> None:
        if state == self.state:
            return
        self.state = state
        obs = self.obs
        if obs is not None:
            obs.breaker_transition(self, now)

    def allow(self, now: float) -> bool:
        """Whether a dispatch to this target may proceed right now."""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            assert self.opened_at is not None
            if now - self.opened_at < self.policy.cooldown_seconds:
                return False
            self._transition(self.HALF_OPEN, now)
            self._probes_in_flight = 0
        # HALF_OPEN: admit a limited number of probes.
        if self._probes_in_flight < self.policy.half_open_probes:
            self._probes_in_flight += 1
            return True
        return False

    def blocking(self, now: float) -> bool:
        """Read-only check: is this breaker refusing dispatches at ``now``?

        Unlike :meth:`allow` this never transitions state or consumes a
        half-open probe slot, so policy scans (hardware-availability
        checks) can poll it without corrupting probe accounting.
        """
        return (
            self.state == self.OPEN
            and self.opened_at is not None
            and now - self.opened_at < self.policy.cooldown_seconds
        )

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self.opened_at = now
            self._transition(self.OPEN, now)

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state != self.CLOSED:
            self._transition(self.CLOSED, now)
        self._probes_in_flight = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker({self.target!r}, {self.state})"


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
class ResilienceController:
    """Owns the breakers, the backoff RNG, and the retry/shed counters.

    One controller per run.  The framework asks three questions:

    * :meth:`target_available` — may I dispatch to this hardware now?
    * :meth:`plan_retry` — when (if ever) should this batch retry?
    * :meth:`degraded` — should dispatch run in the degraded regime?
    """

    def __init__(self, config: ResilienceConfig) -> None:
        self.config = config
        #: The run's observer bundle (assigned by the framework's
        #: telemetry setup); handed to every breaker created after
        #: assignment.
        self.obs: Optional["RunObservers"] = None
        self._rng = random.Random(config.seed)
        self._breakers: dict[str, CircuitBreaker] = {}
        self.retries_scheduled = 0
        self.retries_abandoned = 0
        self.requests_shed = 0

    # ------------------------------------------------------------------
    # Breakers
    # ------------------------------------------------------------------
    def breaker(self, target: str) -> CircuitBreaker:
        b = self._breakers.get(target)
        if b is None:
            b = self._breakers[target] = CircuitBreaker(
                target,
                self.config.breaker,
                obs=self.obs,
            )
        return b

    def target_available(self, target: str, now: float) -> bool:
        """Breaker gate for a dispatch decision (lazily creates CLOSED)."""
        return self.breaker(target).allow(now)

    def target_blocked(self, target: str, now: float) -> bool:
        """Read-only breaker check for availability scans.

        Does not allocate a breaker for never-failed targets and does not
        consume half-open probe slots (see :meth:`CircuitBreaker.blocking`).
        """
        b = self._breakers.get(target)
        return b is not None and b.blocking(now)

    def record_failure(self, target: str, now: float) -> None:
        self.breaker(target).record_failure(now)

    def record_success(self, target: str, now: float) -> None:
        # Only touch existing breakers: success against a never-failed
        # target should not allocate state on the completion hot path.
        b = self._breakers.get(target)
        if b is not None:
            b.record_success(now)

    def degraded(self, now: float) -> bool:
        """Whether any target's breaker is currently refusing dispatches."""
        return any(b.blocking(now) for b in self._breakers.values())

    def breaker_state_counts(self) -> dict[str, int]:
        """Breakers per state (time-series sampler probe).  Targets that
        never failed have no breaker and are not counted."""
        counts = {
            CircuitBreaker.CLOSED: 0,
            CircuitBreaker.OPEN: 0,
            CircuitBreaker.HALF_OPEN: 0,
        }
        for b in self._breakers.values():
            counts[b.state] += 1
        return counts

    # ------------------------------------------------------------------
    # Backoff
    # ------------------------------------------------------------------
    def next_backoff(self, prev_backoff: float) -> float:
        """One decorrelated-jitter draw.

        ``sleep = min(cap, uniform(base, max(base, prev * 3)))`` — the
        jitter decorrelates concurrent retriers so they do not stampede
        the recovering node in lockstep; with ``jitter=False`` the
        deterministic envelope is used instead.
        """
        p = self.config.retry
        hi = min(
            p.max_backoff_seconds,
            max(p.base_backoff_seconds, prev_backoff * 3.0),
        )
        if not p.jitter:
            return hi
        return self._rng.uniform(p.base_backoff_seconds, hi)

    def plan_retry(
        self,
        now: float,
        deadline: float,
        attempt: int,
        prev_backoff: float,
    ) -> Optional[tuple[float, float]]:
        """Plan the next retry of a failed batch, or abandon it.

        Parameters
        ----------
        now:
            Current simulation time.
        deadline:
            Absolute SLO deadline of the batch's *oldest* request
            (``first_arrival + slo``); no retry is ever scheduled at or
            past this instant.
        attempt:
            Dispatch attempts already made (>= 1).
        prev_backoff:
            The previous backoff, 0.0 on the first retry.

        Returns
        -------
        ``(delay_seconds, backoff)`` to schedule the retry after, or
        ``None`` when the batch is out of attempts or out of SLO budget.
        The returned ``backoff`` feeds the next call's ``prev_backoff``.
        """
        p = self.config.retry
        if attempt >= p.max_attempts:
            self.retries_abandoned += 1
            return None
        backoff = self.next_backoff(prev_backoff)
        remaining = deadline - now
        if backoff >= remaining:
            # Even the earliest admissible retry lands past the deadline:
            # dispatching it would burn capacity on a guaranteed miss.
            self.retries_abandoned += 1
            return None
        self.retries_scheduled += 1
        return backoff, backoff

    def shed(self, n: int = 1) -> None:
        self.requests_shed += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResilienceController(recovery={self.config.recovery!r}, "
            f"breakers={len(self._breakers)})"
        )
