"""Deterministic gate on the Python work of the request path.

Counts the Python calls made into the ``repro`` package while the engine
runs (the arrival pump, Job Distribution, containers, the devices, the
batch log and the monitor's hardware selection), per completed request,
on two configurations of ``test_dispatch_digests.py``:

* ``azure_cpu`` -- Paldia parked on CPU nodes at about 1.6 requests per
  dispatch window, where per-window, per-batch and per-tick fixed costs
  dominate;
* ``poisson_gpu`` -- Paldia at its Poisson peak on GPUs, where windows
  are large and co-running jobs share the device.

Call counts repeat exactly from run to run, so unlike wall-clock ratios
this gate cannot flap.  A bound fails when a change adds Python calls to
the path that every request pays for.
"""

import sys
from pathlib import Path

import pytest

import repro
from repro.core.paldia import PaldiaPolicy
from repro.framework.slo import SLO
from repro.framework.system import ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.workloads.models import get_model
from repro.workloads.traces import AZURE_PEAK_TO_MEAN, azure_trace, poisson_trace

#: The benchmark's ``azure_day`` mean rate: 100,000 requests over 8,640 s.
AZURE_DAY_MEAN_RPS = 100_000 / 8_640.0

#: Python calls into ``repro`` per completed request while the engine
#: runs: the readings on CPython 3.11 with one object per batch and plain
#: heap entries (16.48 and 4.34; with a ``Job`` and an ``Event`` per
#: batch the path read 20.78 and 5.35, and before the lean request path
#: 28.91 and 6.96) plus 5 %.  CPython 3.12 inlines comprehensions, so it
#: reads a little lower.
MAX_CALLS_PER_REQUEST = {"azure_cpu": 17.31, "poisson_gpu": 4.56}


def _trace(config, model):
    if config == "azure_cpu":
        return azure_trace(peak_rps=AZURE_DAY_MEAN_RPS * AZURE_PEAK_TO_MEAN,
                           duration=900.0, seed=0)
    return poisson_trace(rate_rps=model.peak_rps, duration=30.0, seed=0)


@pytest.mark.parametrize("config", sorted(MAX_CALLS_PER_REQUEST))
def test_calls_per_completed_request(config):
    model, profiles, slo = get_model("resnet50"), ProfileService(), SLO()
    run = ServerlessRun(
        model, _trace(config, model),
        PaldiaPolicy(model, profiles, slo.target_seconds), profiles, slo,
    )
    run.arm()
    package = str(Path(repro.__file__).parent)
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(profiler)
    try:
        run.sim.run(until=run.horizon)
    finally:
        sys.setprofile(None)
    result = run.finalize()
    per_request = calls / result.completed_requests
    print(f"\n{config}: {calls} calls over {result.completed_requests} "
          f"completed requests ({per_request:.2f} per request)")
    assert result.completed_requests > 5000
    assert per_request <= MAX_CALLS_PER_REQUEST[config]
