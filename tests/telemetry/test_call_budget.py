"""Deterministic gates on per-batch telemetry work.

Completed batches are appended once to the run's batch log, with each
one's execution context at its last start, and the telemetry pillars
read that log at finalize, so a traced run makes almost no calls into
``repro/telemetry`` per completed batch and reads no log rows while it
simulates.  What stays per batch by design: about one
``job_distribution.split`` event per GPU window, and a little from ticks
and leases.  Call counts, unlike wall-clock ratios, cannot flap.
"""

import sys
from pathlib import Path

import repro.telemetry
from repro.core.paldia import PaldiaPolicy
from repro.framework.slo import SLO
from repro.framework.system import DRAIN_GRACE_SECONDS, RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator.metrics import BatchLog
from repro.telemetry import Tracer
from repro.workloads.models import get_model
from repro.workloads.traces import poisson_trace

#: Calls into ``repro/telemetry`` per completed batch while the engine
#: runs.
MAX_CALLS_PER_BATCH = 2.0


def test_telemetry_calls_per_completed_batch():
    model, profiles, slo = get_model("resnet50"), ProfileService(), SLO()
    trace = poisson_trace(rate_rps=model.peak_rps, duration=60.0, seed=0)
    config = RunConfig(reqtrace=True, timeseries_interval_seconds=0,
                       slo_monitor_window_seconds=0)
    run = ServerlessRun(
        model, trace, PaldiaPolicy(model, profiles, slo.target_seconds),
        profiles, slo, config, tracer=Tracer(),
    )
    run.arm()
    package = str(Path(repro.telemetry.__file__).parent)
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(profiler)
    try:
        run.sim.run(until=trace.duration + DRAIN_GRACE_SECONDS)
    finally:
        sys.setprofile(None)
    run.finalize()
    batches = len(run.metrics.log)
    print(f"\n{calls} telemetry calls over {batches} batches "
          f"({calls / batches:.2f} per batch)")
    assert batches > 1000
    assert calls / batches <= MAX_CALLS_PER_BATCH


def test_traced_run_reads_no_batch_log_while_simulating(monkeypatch):
    # Every pillar on: sampler, SLO monitor, cost meter, request trace.
    # Each reads the log after the simulation (the SLO monitor's alerts
    # and ``slo.*`` columns included), so ``sim.run`` takes no view or
    # copy of its rows.
    model, profiles, slo = get_model("resnet50"), ProfileService(), SLO()
    trace = poisson_trace(rate_rps=model.peak_rps, duration=60.0, seed=0)
    run = ServerlessRun(
        model, trace, PaldiaPolicy(model, profiles, slo.target_seconds),
        profiles, slo, RunConfig(reqtrace=True), tracer=Tracer(),
    )
    run.arm()
    obs = run.obs
    assert all(pillar is not None for pillar in (
        obs.sampler, obs.slo_monitor, obs.costmeter, obs.reqtrace))
    reads = []

    def counted(name):
        read = getattr(BatchLog, name)

        def wrapper(log, *args):
            reads.append(name)
            return read(log, *args)
        return wrapper

    for name in ("view", "rows"):
        monkeypatch.setattr(BatchLog, name, counted(name))
    run.sim.run(until=trace.duration + DRAIN_GRACE_SECONDS)
    during = list(reads)
    result = run.finalize()
    print(f"\n{len(during)} batch-log reads while simulating, "
          f"{len(reads) - len(during)} at finalize, "
          f"{len(run.metrics.log)} batches")
    assert len(run.metrics.log) > 1000
    assert result.completed_requests > 0
    assert during == []
