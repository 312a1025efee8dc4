"""Autoscaling (Section IV-C): reactive, predictive, delayed termination.

Three cooperating behaviours, re-purposed for inference apps:

* **Reactive scale-up** — at dispatch, the framework asks for one container
  per spatially-shared batch (``n_c = ceil(n_spatial / batch_size)``) plus
  one reusable container for the whole temporal queue; missing containers
  are spawned immediately (cold start visible to the requests that wait).
* **Predictive scale-up** — every ``interval`` (~10 s) an EWMA forecast of
  the next window's load pre-warms containers before they are needed.
* **Delayed termination** — surplus warm containers are reaped only after
  ``keep_alive`` (~10 min) of continuous idleness, slashing cold starts on
  recurring load.
"""

from __future__ import annotations

import math

from repro.core.predictor import RatePredictor
from repro.hardware.catalog import HardwareSpec
from repro.hardware.profiles import ProfileService
from repro.simulator.containers import ContainerPool
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.workloads.models import ModelSpec

__all__ = ["Autoscaler", "containers_for_split"]


def containers_for_split(n_spatial: int, batch_size: int, has_temporal: bool) -> int:
    """Section IV-C's container count: one per spatial batch, plus one warm
    container reused for the entire temporal queue."""
    if n_spatial < 0 or batch_size < 1:
        raise ValueError("invalid container sizing inputs")
    n = math.ceil(n_spatial / batch_size) if n_spatial else 0
    if has_temporal:
        n += 1
    return max(1, n)


class Autoscaler:
    """Container scaling for one (model, node) pair.

    Parameters
    ----------
    model / profiles:
        Workload and profiling database (for batch sizes).
    predictor:
        Shared rate predictor (the same lightweight model Hardware
        Selection uses).
    slo_seconds:
        Request SLO (drives the flexible batch size).
    keep_alive_seconds:
        Delayed-termination window (~600 s).
    interval_seconds:
        Predictive-scaling cadence (~10 s).
    plan_horizon_seconds:
        Forecast window converted to a per-dispatch request count.
    """

    def __init__(
        self,
        model: ModelSpec,
        profiles: ProfileService,
        predictor: RatePredictor,
        slo_seconds: float,
        keep_alive_seconds: float = 600.0,
        interval_seconds: float = 10.0,
        plan_horizon_seconds: float = 1.0,
        *,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.model = model
        self.profiles = profiles
        self.predictor = predictor
        self.slo_seconds = float(slo_seconds)
        self.keep_alive_seconds = float(keep_alive_seconds)
        self.interval_seconds = float(interval_seconds)
        self.plan_horizon_seconds = float(plan_horizon_seconds)
        #: Decision-audit sink.  Assigning ``.tracer`` after construction
        #: still works (the framework's pre-injection idiom) but new code
        #: should pass ``tracer=`` here.
        self.tracer: Tracer = tracer
        #: Last predictive-tick forecast (rps) and the warm-pool target it
        #: implied — the time-series sampler's autoscaler probes.
        self.last_prediction: float = 0.0
        self.last_pool_target: int = 0

    # ------------------------------------------------------------------
    def reactive(self, pool: ContainerPool, n_containers: int) -> int:
        """Ensure the pool can serve a dispatch needing ``n_containers``;
        returns the number of cold starts initiated."""
        if pool.n_total >= n_containers:
            return 0  # ``ensure`` would spawn nothing
        spawned = pool.ensure(n_containers)
        if spawned and self.tracer.enabled:
            self.tracer.event(
                "autoscaler.reactive_scale_up",
                pool.sim.now,
                cat="decision",
                needed=int(n_containers),
                spawned=spawned,
                n_total=pool.n_total,
            )
        return spawned

    def predictive(
        self, pool: ContainerPool, hw: HardwareSpec, now: float
    ) -> int:
        """Pre-warm for the predicted load (one tick of the ~10 s loop)."""
        rate = self.predictor.predict(now, self.interval_seconds)
        self.last_prediction = rate
        batch = self.profiles.best_batch(self.model, hw, self.slo_seconds)
        if batch == 0:
            return 0
        n_future = math.ceil(rate * self.plan_horizon_seconds)
        needed = containers_for_split(n_future, batch, has_temporal=True)
        self.last_pool_target = needed
        return pool.ensure(needed)

    def reap(self, pool: ContainerPool) -> int:
        """Apply delayed termination to the pool."""
        return pool.reap(self.keep_alive_seconds)

    def tick(self, pool: ContainerPool, hw: HardwareSpec, now: float) -> dict[str, int]:
        """One predictive-scaling interval: pre-warm then reap."""
        spawned = self.predictive(pool, hw, now)
        reaped = self.reap(pool)
        if self.tracer.enabled:
            self.tracer.event(
                "autoscaler.tick",
                now,
                cat="decision",
                hardware=hw.name,
                spawned=spawned,
                reaped=reaped,
                warm_idle=pool.n_warm_idle,
                busy=pool.n_busy,
                spawning=pool.n_spawning,
                waiting=pool.n_waiting,
            )
            if reaped:
                self.tracer.event(
                    "autoscaler.delayed_termination",
                    now,
                    cat="decision",
                    reaped=reaped,
                    keep_alive_seconds=self.keep_alive_seconds,
                    n_total=pool.n_total,
                )
        return {"spawned": spawned, "reaped": reaped}
