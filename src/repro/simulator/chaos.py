"""Chaos engine: composable, seeded, replayable fault injection.

The paper's fault study (Fig 13b) models exactly one pattern — the in-use
node down 60 s out of every 120 s.  Real heterogeneous fleets see much
more: stochastic crashes, transient stragglers, cold-start failures,
container OOM kills mid-batch, and partial faults that take out only the
MPS (spatial-sharing) path.  This module is the repository's one fault
path: a :class:`ChaosEngine` driving a composable set of *fault specs*:

* :class:`PeriodicOutage` — the deterministic Fig 13b pattern
  (``PeriodicOutage(120.0, 60.0, 60.0)`` is the paper's study).
* :class:`StochasticCrashes` — node crashes with exponential
  inter-arrival times and a fixed outage duration.
* :class:`Slowdowns` — transient stragglers: newly submitted work on the
  serving node runs ``factor``× slower for a window.
* :class:`ColdStartFailures` — a cold start fails with probability ``p``
  and must be restarted, inflating the spawn latency.
* :class:`OOMKills` — a running container is killed mid-batch; the
  framework decides whether to drop, requeue, or retry the batch.
* :class:`MPSFaults` — partial fault disabling only spatial (MPS)
  sharing for a window, forcing pure temporal execution.

Every spec stream draws from its own :class:`numpy.random.Generator`
seeded from ``(ChaosSpec.seed, stream index, kind)``, so

* a :class:`ChaosSpec` run is **bit-identical** across invocations with
  the same seed (the deterministic-replay contract
  ``tests/simulator/test_chaos.py`` pins), and
* adding a fault to a spec never perturbs the event times of the others.

:class:`ChaosSpec` is a plain frozen dataclass with JSON ``dumps`` /
``loads`` (and file ``save`` / ``load``), so a chaos scenario can be
committed next to the experiment that uses it and replayed byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from repro.simulator.engine import Simulator
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = [
    "ChaosEngine",
    "ChaosHooks",
    "ChaosSpec",
    "ColdStartFailures",
    "FaultSpec",
    "MPSFaults",
    "OOMKills",
    "PeriodicOutage",
    "Slowdowns",
    "StochasticCrashes",
]


# ----------------------------------------------------------------------
# Fault specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PeriodicOutage:
    """The deterministic outage cadence of the Fig 13b study.

    Attributes
    ----------
    period_seconds:
        Interval between outage onsets (the paper: every other minute,
        so 120 s between onsets of the 60 s outages).
    downtime_seconds:
        How long each outage lasts (60 s in the paper).
    first_failure_at:
        Offset of the first outage.
    """

    period_seconds: float = 120.0
    downtime_seconds: float = 60.0
    first_failure_at: float = 60.0
    kind: str = field(default="periodic_outage", init=False)

    def __post_init__(self) -> None:
        if self.downtime_seconds >= self.period_seconds:
            raise ValueError("downtime must be shorter than the period")
        if min(self.period_seconds, self.downtime_seconds) <= 0:
            raise ValueError("outage times must be positive")


@dataclass(frozen=True)
class StochasticCrashes:
    """Node crashes with exponential inter-arrival times.

    Attributes
    ----------
    mean_interarrival_seconds:
        Mean of the exponential gap between a recovery and the next
        crash onset (the memoryless fleet-failure model).
    downtime_seconds:
        How long each outage lasts.
    first_crash_after:
        Earliest possible onset (grace period at trace start).
    """

    mean_interarrival_seconds: float = 120.0
    downtime_seconds: float = 30.0
    first_crash_after: float = 0.0
    kind: str = field(default="stochastic_crashes", init=False)

    def __post_init__(self) -> None:
        if self.mean_interarrival_seconds <= 0 or self.downtime_seconds <= 0:
            raise ValueError("crash times must be positive")


@dataclass(frozen=True)
class Slowdowns:
    """Transient stragglers: multiplicative latency inflation windows."""

    mean_interarrival_seconds: float = 90.0
    duration_seconds: float = 15.0
    factor: float = 2.0
    first_after: float = 0.0
    kind: str = field(default="slowdowns", init=False)

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("a slowdown cannot speed execution up")
        if self.mean_interarrival_seconds <= 0 or self.duration_seconds <= 0:
            raise ValueError("slowdown times must be positive")


@dataclass(frozen=True)
class ColdStartFailures:
    """Cold starts fail (and restart) with probability ``probability``.

    A failed spawn pays ``1 + extra_delay_factor`` times the node's
    cold-start latency; failures can chain (geometric), so the expected
    inflation is ``1 + p * extra / (1 - p)``.
    """

    probability: float = 0.2
    extra_delay_factor: float = 1.0
    kind: str = field(default="cold_start_failures", init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability < 1.0:
            raise ValueError("cold-start failure probability must be in [0, 1)")
        if self.extra_delay_factor <= 0:
            raise ValueError("extra delay factor must be positive")


@dataclass(frozen=True)
class OOMKills:
    """A running container is OOM-killed mid-batch (exponential arrivals)."""

    mean_interarrival_seconds: float = 120.0
    first_after: float = 0.0
    kind: str = field(default="oom_kills", init=False)

    def __post_init__(self) -> None:
        if self.mean_interarrival_seconds <= 0:
            raise ValueError("OOM inter-arrival must be positive")


@dataclass(frozen=True)
class MPSFaults:
    """Partial fault: spatial (MPS) sharing is down for a window.

    The device itself keeps serving — only the y-split must fall back to
    pure temporal execution until the MPS daemon recovers.
    """

    mean_interarrival_seconds: float = 180.0
    duration_seconds: float = 30.0
    first_after: float = 0.0
    kind: str = field(default="mps_faults", init=False)

    def __post_init__(self) -> None:
        if self.mean_interarrival_seconds <= 0 or self.duration_seconds <= 0:
            raise ValueError("MPS-fault times must be positive")


FaultSpec = Union[
    PeriodicOutage,
    StochasticCrashes,
    Slowdowns,
    ColdStartFailures,
    OOMKills,
    MPSFaults,
]

_FAULT_TYPES: dict[str, type] = {
    "periodic_outage": PeriodicOutage,
    "stochastic_crashes": StochasticCrashes,
    "slowdowns": Slowdowns,
    "cold_start_failures": ColdStartFailures,
    "oom_kills": OOMKills,
    "mps_faults": MPSFaults,
}


# ----------------------------------------------------------------------
# The scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosSpec:
    """A replayable chaos scenario: fault specs plus the master seed."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # ------------------------------------------------------ JSON forms --
    def to_dict(self) -> dict:
        return {
            "schema": "repro.chaos/1",
            "seed": self.seed,
            "faults": [dataclasses.asdict(f) for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosSpec":
        faults = []
        for raw in data.get("faults", []):
            raw = dict(raw)
            kind = raw.pop("kind", None)
            try:
                fault_cls = _FAULT_TYPES[kind]
            except KeyError:
                raise ValueError(
                    f"unknown fault kind {kind!r}; "
                    f"known: {sorted(_FAULT_TYPES)}"
                ) from None
            faults.append(fault_cls(**raw))
        return cls(faults=tuple(faults), seed=int(data.get("seed", 0)))

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "ChaosSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps() + "\n")

    @classmethod
    def load(cls, path: str) -> "ChaosSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())


# ----------------------------------------------------------------------
# Framework hooks
# ----------------------------------------------------------------------
@dataclass
class ChaosHooks:
    """Callbacks the engine drives into the serving framework.

    All optional: an engine with a missing hook silently skips that fault
    effect (the spec still advances its RNG stream, so adding a hook
    later never shifts the other streams).  Slowdowns and MPS faults need
    no hook: the framework reads :attr:`ChaosEngine.slowdown_factor` and
    :attr:`ChaosEngine.mps_down` when it submits and plans work.
    ``on_oom_kill`` returns whether it evicted a running batch; an OOM
    kill with nothing to kill is not counted as injected.
    """

    on_node_fail: Optional[Callable[[], None]] = None
    on_node_recover: Optional[Callable[[], None]] = None
    on_oom_kill: Optional[Callable[[], bool]] = None


class ChaosEngine:
    """Drives a :class:`ChaosSpec` on the simulator clock.

    Parameters
    ----------
    sim:
        Shared simulator.
    spec:
        The chaos scenario.
    hooks:
        Framework callbacks (see :class:`ChaosHooks`).
    horizon:
        No fault *onset* fires at or past this time (end of trace);
        recoveries of already-active faults may still land after it.
        Keyword-only.
    tracer:
        Decision-audit sink; faults emit paired ``chaos.inject`` /
        ``chaos.recover`` events carrying the fault ``kind``.
        Keyword-only.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: ChaosSpec,
        hooks: ChaosHooks,
        *,
        horizon: Optional[float] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.hooks = hooks
        self.horizon = horizon
        self.tracer = tracer
        #: Injected-fault counters by kind (all kinds pre-seeded to 0).
        self.injected: dict[str, int] = {k: 0 for k in _FAULT_TYPES}
        #: Whether an engine-driven node outage is currently active.
        self.node_down = False
        #: Whether spatial (MPS) sharing is currently faulted.
        self.mps_down = False
        #: Current multiplicative slowdown on newly submitted work.
        self.slowdown_factor = 1.0
        #: Cold-start failures are drawn per spawn, not scheduled, so
        #: their streams exist before :meth:`start`: the framework asks
        #: :attr:`perturbs_cold_starts` when it builds the run.
        self._cold_start_streams: list[tuple[ColdStartFailures, np.random.Generator]] = [
            (fault, self._rng(index, fault.kind))
            for index, fault in enumerate(spec.faults)
            if isinstance(fault, ColdStartFailures)
        ]
        self._started = False

    # ------------------------------------------------------------------
    def _rng(self, index: int, kind: str) -> np.random.Generator:
        """An independent, replayable stream per fault spec.

        The kind enters through ``crc32`` (stable across processes —
        ``hash()`` is randomised by PYTHONHASHSEED and would break the
        cross-invocation replay contract)."""
        return np.random.default_rng(
            [self.spec.seed & 0x7FFFFFFF, index, zlib.crc32(kind.encode())]
        )

    def _past_horizon(self, t: float) -> bool:
        return self.horizon is not None and t >= self.horizon

    def _emit(self, name: str, kind: str, **attrs: object) -> None:
        if self.tracer.enabled:
            self.tracer.event(
                name, self.sim.now, cat="chaos", kind=kind, **attrs
            )

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm every scheduled fault stream.  Call once."""
        if self._started:
            raise RuntimeError("a ChaosEngine can only start once")
        self._started = True
        for index, fault in enumerate(self.spec.faults):
            if isinstance(fault, PeriodicOutage):
                self._arm_periodic(fault)
                continue
            if isinstance(fault, ColdStartFailures):
                continue  # drawn per spawn (see cold_start_delay)
            rng = self._rng(index, fault.kind)
            if isinstance(fault, StochasticCrashes):
                self._recur(fault, rng, fault.first_crash_after,
                            fault.downtime_seconds, self._crash)
            elif isinstance(fault, Slowdowns):
                self._recur(fault, rng, fault.first_after,
                            fault.duration_seconds, self._slow_start)
            elif isinstance(fault, OOMKills):
                self._recur(fault, rng, fault.first_after, 0.0, self._oom)
            elif isinstance(fault, MPSFaults):
                self._recur(fault, rng, fault.first_after,
                            fault.duration_seconds, self._mps_fail)
            else:  # pragma: no cover - exhaustive over FaultSpec
                raise TypeError(f"unknown fault spec {fault!r}")

    def _recur(
        self,
        fault: FaultSpec,
        rng: np.random.Generator,
        first_after: float,
        window: float,
        fire: Callable[[FaultSpec], None],
    ) -> None:
        """Drive one recurring fault: the first onset at ``first_after``
        plus an exponential gap, each later one ``window`` (the fault's
        own duration) plus a fresh gap after the previous onset.  No onset
        is scheduled at or past the horizon, so ``fire`` never runs
        there."""
        mean = fault.mean_interarrival_seconds

        def onset() -> None:
            fire(fault)
            at = self.sim.now + window + float(rng.exponential(mean))
            if not self._past_horizon(at):
                self.sim.schedule_at(at, onset)

        at = first_after + float(rng.exponential(mean))
        if not self._past_horizon(at):
            self.sim.schedule_at(at, onset)

    # ------------------------------------------------------------------
    # Node outages
    # ------------------------------------------------------------------
    def _arm_periodic(self, fault: PeriodicOutage) -> None:
        self.sim.schedule_at(
            fault.first_failure_at, lambda: self._periodic_fail(fault)
        )

    def _periodic_fail(self, fault: PeriodicOutage) -> None:
        if self._past_horizon(self.sim.now):
            return
        self._begin_outage(fault.kind, fault.downtime_seconds)
        self.sim.schedule(
            fault.downtime_seconds, lambda: self._periodic_recover(fault)
        )

    def _periodic_recover(self, fault: PeriodicOutage) -> None:
        self._end_outage(fault.kind)
        next_onset = fault.period_seconds - fault.downtime_seconds
        if self.horizon is None or self.sim.now + next_onset < self.horizon:
            self.sim.schedule(next_onset, lambda: self._periodic_fail(fault))

    def _crash(self, fault: StochasticCrashes) -> None:
        if not self.node_down:
            # A crash landing during another outage merges into it rather
            # than nesting fail/recover pairs.
            self._begin_outage(fault.kind, fault.downtime_seconds)
            self.sim.schedule(
                fault.downtime_seconds, lambda: self._end_outage(fault.kind)
            )

    def _begin_outage(self, kind: str, downtime: float) -> None:
        self.injected[kind] += 1
        self.node_down = True
        self._emit(
            "chaos.inject",
            kind,
            outage_index=self.injected[kind],
            downtime_seconds=downtime,
        )
        if self.hooks.on_node_fail is not None:
            self.hooks.on_node_fail()

    def _end_outage(self, kind: str) -> None:
        self.node_down = False
        self._emit("chaos.recover", kind, outage_index=self.injected[kind])
        if self.hooks.on_node_recover is not None:
            self.hooks.on_node_recover()

    # ------------------------------------------------------------------
    # Slowdowns
    # ------------------------------------------------------------------
    def _slow_start(self, fault: Slowdowns) -> None:
        self.injected[fault.kind] += 1
        # Concurrent windows compound (two stragglers are worse than
        # one); recovery divides the factor back out.
        self.slowdown_factor *= fault.factor
        self._emit(
            "chaos.inject",
            fault.kind,
            factor=fault.factor,
            duration_seconds=fault.duration_seconds,
        )
        self.sim.schedule(fault.duration_seconds, lambda: self._slow_end(fault))

    def _slow_end(self, fault: Slowdowns) -> None:
        self.slowdown_factor /= fault.factor
        if abs(self.slowdown_factor - 1.0) < 1e-12:
            self.slowdown_factor = 1.0  # snap float residue
        self._emit("chaos.recover", fault.kind, factor=self.slowdown_factor)

    # ------------------------------------------------------------------
    # Cold-start failures (pull hook: the pool asks for the spawn delay)
    # ------------------------------------------------------------------
    @property
    def perturbs_cold_starts(self) -> bool:
        return bool(self._cold_start_streams)

    def cold_start_delay(self, base_seconds: float) -> float:
        """The (possibly inflated) spawn latency for one cold start.

        Each configured :class:`ColdStartFailures` stream draws once per
        spawn; a failed start retries, chaining geometrically.
        """
        delay = base_seconds
        for fault, rng in self._cold_start_streams:
            while float(rng.random()) < fault.probability:
                self.injected[fault.kind] += 1
                delay += base_seconds * fault.extra_delay_factor
                self._emit(
                    "chaos.inject", fault.kind, extra_seconds=delay - base_seconds
                )
        return delay

    # ------------------------------------------------------------------
    # OOM kills
    # ------------------------------------------------------------------
    def _oom(self, fault: OOMKills) -> None:
        if self.hooks.on_oom_kill is not None and self.hooks.on_oom_kill():
            self.injected[fault.kind] += 1
            self._emit("chaos.inject", fault.kind)

    # ------------------------------------------------------------------
    # MPS faults
    # ------------------------------------------------------------------
    def _mps_fail(self, fault: MPSFaults) -> None:
        if not self.mps_down:
            self.injected[fault.kind] += 1
            self.mps_down = True
            self._emit(
                "chaos.inject", fault.kind,
                duration_seconds=fault.duration_seconds,
            )
            self.sim.schedule(
                fault.duration_seconds, lambda: self._mps_recover(fault)
            )

    def _mps_recover(self, fault: MPSFaults) -> None:
        self.mps_down = False
        self._emit("chaos.recover", fault.kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        active = [k for k, v in self.injected.items() if v]
        return f"ChaosEngine(faults={len(self.spec.faults)}, injected={active})"
