"""Deterministic gate on per-batch telemetry work.

Completed batches are appended once to the run's batch log, and the
telemetry pillars read that log per tick or at finalize, so a traced run
makes almost no calls into ``repro/telemetry`` per completed batch.
What stays per batch by design: two calls per job start (the observer
bundle and the request tracer's ``on_execute_start``), about one
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
from repro.telemetry import Tracer
from repro.workloads.models import get_model
from repro.workloads.traces import poisson_trace

#: Calls into ``repro/telemetry`` per completed batch while the engine
#: runs.
MAX_CALLS_PER_BATCH = 4.0


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
