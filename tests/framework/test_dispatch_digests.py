"""Pinned dispatch outcomes: what the dispatch path produced, bit for bit.

The golden suites compare two stacks that share ``ServerlessRun``, so a
change to the dispatch path itself (windows, plans, container
acquisition, device submission) moves oracle and candidate together.
These pins were generated from the code before such a change and hold
every configuration's simulated outcome fixed:

* ``azure_cpu`` -- Paldia/resnet50 on an Azure trace at the mean rate of
  the benchmark's ``azure_day`` (about 11.6 req/s), where Paldia parks
  on CPU nodes;
* ``poisson_gpu`` -- Paldia/resnet50 at its Poisson peak (GPU-dense);
* ``azure_<scheme>`` -- the four baselines of ``SCHEMES`` on Azure;
* ``chaos_<recovery>`` -- Paldia/resnet50 on a 300 s Twitter trace with
  stochastic crashes and MPS faults under one-failure breakers, once per
  recovery mode (``retry``, ``requeue``, ``drop``);
* ``faults_all_<recovery>`` -- the same run with every scheduled fault
  kind (the periodic outage, crashes, slowdowns, OOM kills and MPS
  faults; cold-start failures are left out), once per recovery mode and
  once as ``faults_all_legacy``, with no resilience policy at all;
* ``lanes`` -- a two-lane ``MultiModelRun`` (resnet50 and vgg19 at
  their Poisson peaks).

Per run the pins are the SHA-256 of the latency bytes, the SHA-256 of
the batch log's phase, mode and size columns, ``total_cost.hex()``,
hardware switches, cold starts, retries, shed and dropped requests.

Regenerate them (only for an intended outcome change) with one fresh
interpreter per configuration::

    PYTHONPATH=src python tests/framework/test_dispatch_digests.py azure_cpu
    PYTHONPATH=src python tests/framework/test_dispatch_digests.py --all

``--all`` runs every configuration, each in its own interpreter.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PINS = Path(__file__).parent / "data" / "dispatch_digests.json"

#: The four baselines of the primary evaluation (``SCHEMES`` minus Paldia).
BASELINES = ("molecule_P", "infless_llama_P", "molecule_$", "infless_llama_$")
RECOVERIES = ("retry", "requeue", "drop")
#: The benchmark's ``azure_day`` mean rate: 100,000 requests over 8,640 s.
AZURE_DAY_MEAN_RPS = 100_000 / 8_640.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _azure_cpu():
    from repro import PaldiaPolicy, ProfileService, SLO, ServerlessRun
    from repro import azure_trace, get_model
    from repro.workloads.traces import AZURE_PEAK_TO_MEAN

    model = get_model("resnet50")
    trace = azure_trace(peak_rps=AZURE_DAY_MEAN_RPS * AZURE_PEAK_TO_MEAN,
                        duration=900.0, seed=0)
    profiles, slo = ProfileService(), SLO()
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    return [ServerlessRun(model, trace, policy, profiles, slo).execute()]


def _poisson_gpu():
    from repro import PaldiaPolicy, ProfileService, SLO, ServerlessRun
    from repro import get_model, poisson_trace

    model = get_model("resnet50")
    trace = poisson_trace(rate_rps=model.peak_rps, duration=30.0, seed=0)
    profiles, slo = ProfileService(), SLO()
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    return [ServerlessRun(model, trace, policy, profiles, slo).execute()]


def _baseline(scheme: str):
    from repro import ProfileService, SLO, ServerlessRun, azure_trace
    from repro import get_model
    from repro.experiments.schemes import make_policy

    model = get_model("resnet50")
    trace = azure_trace(peak_rps=model.peak_rps, duration=300.0, seed=1)
    profiles, slo = ProfileService(), SLO()
    policy = make_policy(scheme, model, profiles, slo.target_seconds, trace)
    return [ServerlessRun(model, trace, policy, profiles, slo).execute()]


def every_fault() -> tuple:
    """The ``faults_all_*`` fault mix: every kind the chaos engine
    schedules on the clock (cold-start failures are drawn per spawn)."""
    from repro.simulator.chaos import (
        MPSFaults, OOMKills, PeriodicOutage, Slowdowns, StochasticCrashes,
    )

    return (
        PeriodicOutage(),
        StochasticCrashes(mean_interarrival_seconds=60, downtime_seconds=20),
        Slowdowns(),
        OOMKills(mean_interarrival_seconds=30),
        MPSFaults(),
    )


def chaos_run(recovery, tracer=None, spy=None, faults=None):
    """The chaos configuration's :class:`ServerlessRun` (not executed).

    ``recovery=None`` runs without a resilience policy (the legacy
    requeue path).  ``faults`` replaces the default crashes and MPS
    faults.  ``spy``, when given, wraps the policy's ``plan_window``
    before the run is built: ``spy(run, plan_window)`` returns the
    replacement.
    """
    from repro import PaldiaPolicy, ProfileService, RunConfig, SLO
    from repro import ServerlessRun, get_model, twitter_trace
    from repro.core.resilience import BreakerPolicy, ResilienceConfig
    from repro.simulator.chaos import ChaosSpec, MPSFaults, StochasticCrashes
    from repro.workloads.traces import AZURE_PEAK_TO_MEAN

    model = get_model("resnet50")
    trace = twitter_trace(
        mean_rps=5.0 * model.peak_rps / AZURE_PEAK_TO_MEAN,
        duration=300.0, seed=0,
    )
    if faults is None:
        faults = (
            StochasticCrashes(mean_interarrival_seconds=60,
                              downtime_seconds=20),
            MPSFaults(),
        )
    chaos = ChaosSpec(faults=faults, seed=0)
    resilience = None if recovery is None else ResilienceConfig(
        recovery=recovery,
        breaker=BreakerPolicy(failure_threshold=1, cooldown_seconds=60),
    )
    profiles, slo = ProfileService(), SLO()
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    run = ServerlessRun(
        model, trace, policy, profiles, slo,
        RunConfig(chaos=chaos, resilience=resilience), tracer=tracer,
    )
    if spy is not None:
        policy.plan_window = spy(run, policy.plan_window)
    return run


def _lanes():
    from repro import Deployment, MultiModelRun, PaldiaPolicy, ProfileService
    from repro import SLO, get_model, poisson_trace

    profiles, slo = ProfileService(), SLO()
    deployments = []
    for i, name in enumerate(("resnet50", "vgg19")):
        model = get_model(name)
        trace = poisson_trace(rate_rps=model.peak_rps, duration=30.0, seed=i)
        deployments.append(Deployment(
            model, trace, PaldiaPolicy(model, profiles, slo.target_seconds)
        ))
    fleet = MultiModelRun(deployments, profiles, slo).execute()
    return [fleet.per_model[d.model.name] for d in deployments]


CONFIGS = {
    "azure_cpu": _azure_cpu,
    "poisson_gpu": _poisson_gpu,
    **{f"azure_{s}": (lambda s=s: _baseline(s)) for s in BASELINES},
    **{f"chaos_{r}": (lambda r=r: [chaos_run(r).execute()])
       for r in RECOVERIES},
    **{f"faults_all_{r}": (
        lambda r=r: [chaos_run(r, faults=every_fault()).execute()]
    ) for r in RECOVERIES},
    "faults_all_legacy": lambda: [
        chaos_run(None, faults=every_fault()).execute()
    ],
    "lanes": _lanes,
}


def digests(config: str) -> list[dict]:
    """Each run's pinned outcome for ``config``."""
    from repro.framework.request import PHASES

    out = []
    for result in CONFIGS[config]():
        rows = result.metrics.log.view()
        columns = [np.ascontiguousarray(rows[p]).tobytes() for p in PHASES]
        columns.append("\n".join(rows.labels("mode")).encode("utf-8"))
        columns.append(np.ascontiguousarray(rows["size"]).tobytes())
        out.append({
            "model": result.model,
            "scheme": result.scheme,
            "batches": len(rows),
            "latencies": _sha(result.metrics.latencies().tobytes()),
            "columns": _sha(b"".join(columns)),
            "total_cost": result.total_cost.hex(),
            "n_switches": result.n_switches,
            "cold_starts": result.cold_starts,
            "retries": result.retries_scheduled,
            "shed": result.requests_shed,
            "dropped": result.requests_dropped,
        })
    return out


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_dispatch_outcomes_match_the_pins(config):
    want = json.loads(PINS.read_text())[config]
    got = digests(config)
    assert len(got) == len(want)
    for run, pinned in zip(got, want):
        assert run == pinned, f"{config}/{run['model']}"


def test_pins_cover_cpu_gpu_and_the_fault_paths():
    """The configurations still reach what they are meant to pin."""
    pins = json.loads(PINS.read_text())
    assert set(pins) == set(CONFIGS)
    assert pins["chaos_retry"][0]["retries"] > 0
    assert pins["chaos_retry"][0]["shed"] > 0
    assert pins["chaos_drop"][0]["dropped"] > 0
    assert pins["azure_cpu"][0]["n_switches"] > 0
    assert len(pins["lanes"]) == 2
    # Each recovery route leaves its own mark on the every-fault run.
    assert pins["faults_all_retry"][0]["retries"] > 0
    assert pins["faults_all_drop"][0]["dropped"] > 0
    assert pins["faults_all_requeue"][0]["shed"] > 0
    legacy = pins["faults_all_legacy"][0]
    assert (legacy["retries"], legacy["shed"], legacy["dropped"]) == (0, 0, 0)


def test_faults_all_legacy_fires_every_kind_and_loses_nothing():
    """The every-fault configuration injects each of its five kinds, and
    the legacy requeue path still completes every offered request."""
    run = chaos_run(None, faults=every_fault())
    result = run.execute()
    injected = run._chaos.injected
    assert all(injected[fault.kind] >= 1 for fault in every_fault()), injected
    assert result.completed_requests == result.offered_requests


class TestDegradedDispatch:
    """What dispatch does while a circuit breaker blocks a target.

    The chaos configuration above, traced: the ``breaker.*`` events give
    each target's blocking intervals (open until the cooldown ends or the
    breaker next changes state), and a spy on the policy's
    ``plan_window`` sees every window that reached planning.
    """

    @pytest.fixture(scope="class")
    def traced(self):
        from repro.telemetry.tracer import Tracer

        planned = []

        def spy(run, plan_window):
            def wrapper(n, hw, existing_fbr, now, existing_queue=0):
                planned.append((now, n, run.resilience.degraded(now)))
                return plan_window(n, hw, existing_fbr, now,
                                   existing_queue=existing_queue)
            return wrapper

        tracer = Tracer()
        run = chaos_run("retry", tracer=tracer, spy=spy)
        result = run.execute()
        return run, result, tracer, planned

    @staticmethod
    def _blocking_intervals(run, tracer) -> list[tuple[float, float]]:
        cooldown = run.config.resilience.breaker.cooldown_seconds
        by_target: dict[str, list] = {}
        for event in tracer.events:
            if event.name.startswith("breaker."):
                by_target.setdefault(event.attrs["target"], []).append(event)
        intervals = []
        for events in by_target.values():
            for i, event in enumerate(events):
                if event.name != "breaker.open":
                    continue
                end = event.time + cooldown
                if i + 1 < len(events):
                    end = min(end, events[i + 1].time)
                intervals.append((event.time, end))
        return intervals

    def test_config_exercises_the_degraded_paths(self, traced):
        run, result, _, planned = traced
        cap = run.config.resilience.degraded_batch_cap
        degraded = [(now, n) for now, n, d in planned if d]
        assert len(degraded) > 0
        assert sum(1 for _, n in degraded if n > cap) > 0
        assert result.requests_shed > 0

    def test_blocked_first_attempts_are_capped_and_temporal(self, traced):
        from repro.framework.request import ShareMode

        run, _, tracer, planned = traced
        cap = run.config.resilience.degraded_batch_cap
        intervals = self._blocking_intervals(run, tracer)
        assert intervals
        # The intervals agree with the controller's own verdict at every
        # planned dispatch.
        for now, _, degraded in planned:
            inside = any(lo <= now < hi for lo, hi in intervals)
            assert inside == degraded, now
        rows = run.metrics.log.view()
        dispatched = rows["dispatched_at"]
        blocked = np.zeros(len(rows), dtype=bool)
        for lo, hi in intervals:
            blocked |= (dispatched >= lo) & (dispatched < hi)
        first = blocked & (rows["retries"] == 0)
        assert first.sum() > 0
        assert rows["size"][first].max() <= cap
        modes = np.asarray(rows.labels("mode"))
        assert set(modes[first]) == {ShareMode.TEMPORAL}

    def test_shed_count_is_the_sum_of_dispatch_time_sheds(self, traced):
        _, result, tracer, _ = traced
        sheds = [e for e in tracer.events if e.name == "retry.shed"]
        window_sheds = [e for e in sheds if "batch_id" not in e.attrs]
        assert window_sheds
        assert result.requests_shed == sum(e.attrs["n"] for e in window_sheds)


def _write(configs: list[str]) -> None:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for config in configs:
        pins[config] = digests(config)
    PINS.parent.mkdir(parents=True, exist_ok=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    names = sys.argv[1:]
    if names == ["--all"]:
        for name in sorted(CONFIGS):
            subprocess.run([sys.executable, __file__, name], check=True)
    else:
        _write(names)
