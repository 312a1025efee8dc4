"""Tests for the per-run observer bundle (`repro.telemetry.observers`).

The bundle is the single hook surface between the simulation and the
telemetry pillars.  These tests pin its fan-out, the shared-cluster
rule (the first traced lane's bundle is the cluster's; later lanes
reuse its meter and request tracer), that both drop paths reach the
request trace, and the seam itself: no simulator or core module names
a pillar, and no module the self-profiler frames names the profiler.
"""

import math
import re
from pathlib import Path

import pytest

import repro
from repro.core.paldia import PaldiaPolicy
from repro.core.resilience import BreakerPolicy, CircuitBreaker, ResilienceConfig
from repro.framework.system import RunConfig, ServerlessRun
from repro.simulator.chaos import ChaosSpec, StochasticCrashes
from repro.simulator.cluster import Cluster
from repro.simulator.engine import Simulator
from repro.telemetry import RequestTracer, RunObservers, Tracer
from repro.workloads.models import get_model
from repro.workloads.traces import azure_trace, poisson_trace


def observers(tracer, reqtrace=None):
    obs = RunObservers(tracer)
    obs.reqtrace = reqtrace
    return obs


class TestFanOut:
    def test_tracer_only_bundle_skips_absent_pillars(self):
        tracer = Tracer()
        obs = RunObservers(tracer)
        obs.shed(1.0, 7, 3, "deadline_passed")
        obs.dropped(7, 1.0, 3)
        obs.container_spawned(1, 0.0, 2.0)
        (ev,) = tracer.events
        assert ev.name == "retry.shed"
        assert ev.attrs == {"batch_id": 7, "n": 3, "reason": "deadline_passed"}

    def test_window_shed_has_no_batch_id(self):
        tracer, rt = Tracer(), RequestTracer()
        observers(tracer, rt).shed(2.0, None, 4, "deadline_passed")
        assert "batch_id" not in tracer.events[0].attrs
        (ev,) = rt.data().events
        assert ev == {"kind": "shed", "t": 2.0, "batch_id": None, "n": 4,
                      "reason": "deadline_passed"}

    def test_breaker_transition_reaches_both_pillars(self):
        tracer, rt = Tracer(), RequestTracer()
        breaker = CircuitBreaker(
            "p3.2xlarge", BreakerPolicy(failure_threshold=1),
            obs=observers(tracer, rt),
        )
        breaker.record_failure(5.0)
        assert [e.name for e in tracer.events] == ["breaker.open"]
        assert tracer.events[0].attrs["consecutive_failures"] == 1
        assert rt.data().events == [
            {"kind": "breaker", "t": 5.0, "target": "p3.2xlarge",
             "state": "open"}
        ]

    def test_unobserved_breaker_still_transitions(self):
        breaker = CircuitBreaker("p3.2xlarge", BreakerPolicy(failure_threshold=1))
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.OPEN


def test_shared_cluster_lanes_share_meter_and_request_tracer(profiles, slo):
    config = RunConfig(reqtrace=True)
    sim = Simulator()
    cluster = Cluster(sim, profiles.catalog,
                      interference=profiles.interference, seed=0)
    lanes = []
    for i, name in enumerate(("resnet50", "vgg19")):
        model = get_model(name)
        trace = poisson_trace(rate_rps=model.peak_rps, duration=60.0, seed=i)
        lanes.append(ServerlessRun(
            model, trace, PaldiaPolicy(model, profiles, slo.target_seconds),
            profiles, slo, config, sim=sim, cluster=cluster, tracer=Tracer(),
        ))
    for lane in lanes:
        lane.arm()
    sim.run(until=60.0 + config.drain_grace_seconds)
    results = [lane.finalize() for lane in lanes]
    first, second = (lane.obs for lane in lanes)
    assert cluster.obs is first
    assert first.costmeter is not None
    assert second.costmeter is first.costmeter
    assert first.reqtrace is not None
    assert second.reqtrace is first.reqtrace
    assert second.slo_monitor is not first.slo_monitor
    for r in results:
        assert math.isclose(
            r.cost_breakdown.attributed_dollars(), r.total_cost,
            rel_tol=0.0, abs_tol=1e-9,
        )
    assert set(results[-1].reqtrace.meta["models"]) == {"resnet50", "vgg19"}


def test_node_failure_drops_reach_the_request_trace(profiles, slo):
    # Both drop paths -- a batch that lost its node while waiting for a
    # container, and work evicted by the node failure itself -- report
    # one drop fact per batch.
    model = get_model("resnet50")
    trace = azure_trace(peak_rps=model.peak_rps, duration=300.0, seed=0)
    config = RunConfig(
        chaos=ChaosSpec(faults=(StochasticCrashes(),)),
        resilience=ResilienceConfig(recovery="drop"),
        reqtrace=True,
    )
    result = ServerlessRun(
        model, trace, PaldiaPolicy(model, profiles, slo.target_seconds),
        profiles, slo, config, tracer=Tracer(),
    ).execute()
    drops = [e for e in result.reqtrace.events if e["kind"] == "drop"]
    assert result.requests_dropped > 0
    assert sum(e["n"] for e in drops) == result.requests_dropped


PILLAR_NAMES = re.compile(r"costmeter|reqtrace|CostMeter|RequestTracer")


@pytest.mark.parametrize("package", ["simulator", "core"])
def test_pillars_stay_behind_the_observer_seam(package):
    # Simulator and core code report facts to one ``obs`` bundle; naming
    # a pillar there would re-open a per-pillar hook path.
    root = Path(repro.__file__).parent / package
    hits = [
        f"{path.relative_to(root.parent)}:{lineno}"
        for path in sorted(root.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if PILLAR_NAMES.search(line)
    ]
    assert hits == []


PROFILER_NAMES = re.compile(r"selfprof|RunProfiler|ProfiledInterference")


@pytest.mark.parametrize(
    "package", ["simulator", "core", "framework", "baselines"]
)
def test_program_carries_no_profiler_code(package):
    # The self-profiler frames the program from outside, with class-level
    # wrappers installed for the length of a ``with RunProfiler()``
    # block; naming it here would re-open an in-program hook.
    root = Path(repro.__file__).parent / package
    hits = [
        f"{path.relative_to(root.parent)}:{lineno}"
        for path in sorted(root.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if PROFILER_NAMES.search(line)
    ]
    assert hits == []
