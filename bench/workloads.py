"""The benchmark's four serving workloads, their output checks and digest.

Each workload builds its inputs from a seed, hands them to the public
``repro`` API, and returns an :class:`Outcome`.  ``repro`` is imported
inside the builders, never at module level: a repetition's set-up time
starts before the first ``import repro``.

``scale`` shortens every simulated duration (and the Azure request
count) for the tests; the benchmark itself always runs at ``scale=1``.

Why these four workloads: each stresses a different layer, and for each
layer at least one workload barely touches it (see ``bench/README.md``).

* ``azure_day`` -- sparse, bursty Azure-shaped traffic on one function.
  Paldia parks on CPU nodes, so per-window dispatch, the CPU device, the
  engine and per-tick hardware selection do the work.
* ``fleet_steady`` -- twelve vision functions at peak Poisson load on one
  shared simulator.  GPU processor sharing, ``plan_window`` carving and
  the metrics collector dominate; CPU and per-window costs are small.
* ``faults_observed`` -- chaos faults with deadline-aware retry and every
  telemetry pillar on: node churn, cold starts, retries and telemetry.
* ``fig3_sweep`` -- the Fig 3 scheme x model matrix (two of its vision
  models) through the experiment runner and result cache, cold then
  warm: per-run set-up, the baselines and the experiments layer.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

__all__ = ["WORKLOADS", "Outcome", "check", "digest", "modelled", "run"]

#: ``azure_day``: one tenth of the million-request day of
#: ``examples/million_user_trace.py``, sized by the same rule.
AZURE_DAY_REQUESTS = 100_000
AZURE_DAY_SECONDS = 8_640.0
#: ``fleet_steady``: simulated seconds of peak Poisson load per lane.
FLEET_SECONDS = 300.0
#: ``faults_observed``: simulated seconds of the faulted Twitter trace,
#: whose mean rate is 5x the Azure mean (the Fig 12b setting).
FAULTS_SECONDS = 1_500.0
FAULTS_MEAN_MULTIPLIER = 5.0
#: ``fig3_sweep``: the paper's 25-minute Azure sample per cell (long
#: enough that the generator's baseline, not its random surges, sets the
#: request count, so the host work barely depends on the seed), on two
#: vision models, so one repetition takes about six host seconds.
FIG3_CELL_SECONDS = 1_500.0
FIG3_MODELS = ("resnet50", "vgg19")


@dataclass
class Outcome:
    """What one workload run produced, for timing, checks and the digest.

    ``runs`` are the :class:`~repro.RunResult` s in a fixed order and
    ``expected_offered()`` gives the arrival count of each run's trace
    (a callable, so ``fig3_sweep`` regenerates its traces only when the
    outputs are checked, outside the timed and traced part).
    ``t_result`` is the ``perf_counter`` reading when the measured result
    was in hand (for ``fig3_sweep``, the end of the cold pass).
    """

    runs: list
    expected_offered: Callable[[], list[int]]
    t_result: float
    #: Requirements beyond the per-run checks, as (description, holds).
    extra_checks: list[tuple[str, bool]] = field(default_factory=list)
    #: Whether the program's own telemetry was on.
    telemetry: bool = False

    @property
    def offered(self) -> int:
        return sum(r.offered_requests for r in self.runs)

    @property
    def completed(self) -> int:
        return sum(r.completed_requests for r in self.runs)

    @property
    def slo_met(self) -> int:
        """Offered requests completed within the modelled SLO."""
        return sum(
            round(r.slo_compliance * r.offered_requests) for r in self.runs
        )


def azure_day(seed: int, scale: float = 1.0) -> Outcome:
    from repro import PaldiaPolicy, ProfileService, SLO, ServerlessRun
    from repro import azure_trace, get_model
    from repro.workloads.traces import AZURE_PEAK_TO_MEAN

    duration = AZURE_DAY_SECONDS * scale
    # The build_trace rule of examples/million_user_trace.py: the peak
    # that yields the request count in expectation.
    peak = AZURE_DAY_REQUESTS * scale * AZURE_PEAK_TO_MEAN / duration
    trace = azure_trace(peak_rps=peak, duration=duration, seed=seed)
    model = get_model("resnet50")
    profiles = ProfileService()
    slo = SLO()
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    result = ServerlessRun(model, trace, policy, profiles, slo).execute()
    return Outcome([result], lambda: [trace.n_requests], perf_counter())


def fleet_steady(seed: int, scale: float = 1.0) -> Outcome:
    from repro import Deployment, MultiModelRun, PaldiaPolicy, ProfileService
    from repro import SLO, poisson_trace, vision_models

    profiles = ProfileService()
    slo = SLO()
    deployments = [
        Deployment(
            model,
            poisson_trace(
                rate_rps=model.peak_rps,
                duration=FLEET_SECONDS * scale,
                seed=seed + i,
            ),
            PaldiaPolicy(model, profiles, slo.target_seconds),
        )
        for i, model in enumerate(vision_models())
    ]
    fleet = MultiModelRun(deployments, profiles, slo).execute()
    t_result = perf_counter()
    runs = [fleet.per_model[d.model.name] for d in deployments]
    lane_cost = sum(r.total_cost for r in runs)
    return Outcome(
        runs,
        lambda: [d.trace.n_requests for d in deployments],
        t_result,
        extra_checks=[
            (
                "fleet total_cost equals the sum of lane costs",
                _close(lane_cost, fleet.total_cost),
            )
        ],
    )


def faults_observed(
    seed: int, scale: float = 1.0, telemetry: bool = True
) -> Outcome:
    """``telemetry=False`` is the same run with the program's telemetry
    off; the traced benchmark run uses it to measure telemetry overhead."""
    from repro import PaldiaPolicy, ProfileService, RunConfig, SLO
    from repro import ServerlessRun, get_model, twitter_trace
    from repro.core.resilience import ResilienceConfig
    from repro.simulator.chaos import (
        ChaosSpec,
        ColdStartFailures,
        MPSFaults,
        OOMKills,
        Slowdowns,
        StochasticCrashes,
    )
    from repro.telemetry.tracer import Tracer
    from repro.workloads.traces import AZURE_PEAK_TO_MEAN

    model = get_model("resnet50")
    trace = twitter_trace(
        mean_rps=FAULTS_MEAN_MULTIPLIER * model.peak_rps / AZURE_PEAK_TO_MEAN,
        duration=FAULTS_SECONDS * scale,
        seed=seed,
    )
    chaos = ChaosSpec(
        faults=(
            StochasticCrashes(),
            Slowdowns(),
            ColdStartFailures(),
            OOMKills(),
            MPSFaults(),
        ),
        seed=seed,
    )
    config = RunConfig(
        chaos=chaos,
        resilience=ResilienceConfig(recovery="retry"),
        reqtrace=telemetry,
    )
    profiles = ProfileService()
    slo = SLO()
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    tracer = Tracer() if telemetry else None
    result = ServerlessRun(
        model, trace, policy, profiles, slo, config, tracer=tracer
    ).execute()
    t_result = perf_counter()
    checks = []
    if telemetry:
        checks = [
            ("cost_breakdown is present", result.cost_breakdown is not None),
            ("reqtrace is present", result.reqtrace is not None),
        ]
    return Outcome(
        [result], lambda: [trace.n_requests], t_result, checks,
        telemetry=telemetry,
    )


def fig3_sweep(seed: int, scale: float = 1.0, cache_root: str = ".") -> Outcome:
    """The matrix is computed into an empty result cache under
    ``cache_root``, then replayed from it; the cache is deleted after."""
    from repro import get_model
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import run_matrix
    from repro.experiments.schemes import SCHEMES
    from repro.experiments.trace_factories import azure_factory

    factory = azure_factory(FIG3_CELL_SECONDS * scale)
    names = list(FIG3_MODELS)
    cache_dir = tempfile.mkdtemp(prefix="fig3-cache-", dir=cache_root)
    try:
        def sweep():
            return run_matrix(
                SCHEMES,
                names,
                factory,
                repetitions=1,
                seed0=seed + 1,
                executor="serial",
                cache=ResultCache(cache_dir),
            )

        cold = sweep()
        t_result = perf_counter()
        warm = sweep()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    n_cells = len(SCHEMES) * len(names)

    def expected() -> list[int]:
        # run_matrix orders cells model-major, scheme-minor; every scheme
        # of a model replays the same trace.
        sizes = [factory(get_model(n), seed + 1).n_requests for n in names]
        return [size for size in sizes for _ in SCHEMES]

    return Outcome(
        list(cold.results),
        expected,
        t_result,
        extra_checks=[
            (
                f"cold pass: {n_cells} misses, 0 hits, no failed cells",
                (cold.cache_misses, cold.cache_hits, len(cold.failed_cells))
                == (n_cells, 0, 0),
            ),
            (
                f"warm pass: {n_cells} hits, 0 misses, no failed cells",
                (warm.cache_hits, warm.cache_misses, len(warm.failed_cells))
                == (n_cells, 0, 0),
            ),
            (
                "replayed results equal the computed ones",
                warm.results == cold.results,
            ),
        ],
    )


WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "azure_day": azure_day,
    "fleet_steady": fleet_steady,
    "faults_observed": faults_observed,
    "fig3_sweep": fig3_sweep,
}

#: Workloads whose program telemetry is on in the measured run.
TELEMETRY_ON = {"faults_observed"}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check(outcome: Outcome) -> list[str]:
    """Every output check; returns the failures (empty when all hold)."""
    import numpy as np

    failures = []
    expected_offered = outcome.expected_offered()
    if len(outcome.runs) != len(expected_offered):
        return ["run count differs from the number of traces"]
    for i, (r, expected) in enumerate(zip(outcome.runs, expected_offered)):
        where = f"run {i} ({r.scheme}/{r.model})"
        if r.offered_requests != expected:
            failures.append(
                f"{where}: offered {r.offered_requests} != trace arrivals "
                f"{expected}"
            )
        if not 0 <= r.completed_requests <= r.offered_requests:
            failures.append(
                f"{where}: completed {r.completed_requests} outside "
                f"[0, offered]"
            )
        if not _close(sum(r.cost_by_spec.values()), r.total_cost):
            failures.append(f"{where}: cost_by_spec does not sum to total_cost")
        for name in ("p50_seconds", "p99_seconds"):
            v = getattr(r, name)
            if not (math.isfinite(v) and v >= 0):
                failures.append(f"{where}: {name} = {v!r}")
        if r.metrics is not None:
            lat = r.metrics.latencies()
            if lat.size != r.completed_requests:
                failures.append(f"{where}: latency count != completed")
            if not (np.all(np.isfinite(lat)) and np.all(lat >= 0)):
                failures.append(f"{where}: latencies not finite and >= 0")
    failures.extend(desc for desc, holds in outcome.extra_checks if not holds)
    return failures


def digest(outcome: Outcome) -> str:
    """Hash of every run's latencies (when kept), cost, hardware
    switches, cold starts and retries, in run order."""
    h = hashlib.sha256()
    for r in outcome.runs:
        if r.metrics is not None:
            h.update(r.metrics.latencies().tobytes())
        h.update(
            repr(
                (
                    r.scheme,
                    r.model,
                    r.offered_requests,
                    r.completed_requests,
                    r.total_cost.hex(),
                    r.n_switches,
                    r.cold_starts,
                    r.retries_scheduled,
                    r.requests_shed,
                    r.p99_seconds.hex(),
                )
            ).encode()
        )
    return h.hexdigest()[:16]


def modelled(outcome: Outcome) -> dict[str, Any]:
    """Modelled outcomes, printed for information and never gated."""
    offered = outcome.offered
    return {
        "slo_compliance": outcome.slo_met / offered if offered else 1.0,
        "slo_missed": offered - outcome.slo_met,
        "p99_ms_max": 1e3 * max(r.p99_seconds for r in outcome.runs),
        "total_cost": sum(r.total_cost for r in outcome.runs),
        "switches": sum(r.n_switches for r in outcome.runs),
        "cold_starts": sum(r.cold_starts for r in outcome.runs),
        "retries": sum(r.retries_scheduled for r in outcome.runs),
        "shed": sum(r.requests_shed for r in outcome.runs),
    }


def run(
    name: str,
    seed: int,
    scale: float = 1.0,
    telemetry: bool = True,
    scratch: Optional[str] = None,
) -> Outcome:
    """Run workload ``name``.  ``telemetry=False`` turns off the program
    telemetry of the workloads in :data:`TELEMETRY_ON` (the others run
    without it anyway); ``scratch`` is where ``fig3_sweep`` puts its
    result cache."""
    if name == "fig3_sweep":
        return fig3_sweep(seed, scale, cache_root=scratch or os.getcwd())
    if name in TELEMETRY_ON:
        return WORKLOADS[name](seed, scale, telemetry=telemetry)
    return WORKLOADS[name](seed, scale)
