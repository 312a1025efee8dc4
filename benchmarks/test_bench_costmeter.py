"""Cost-meter gates: conservation on a real run and zero disabled cost.

Two contracts from the cost-observability PR:

* **Conservation** — on a fixed mid-size traced scenario the meter's
  itemization accounts for every lease-second:
  ``sum(per-request busy dollars) + idle + coldstart + reconfig ==
  RunResult.total_cost`` to 1e-9 relative.  The line sweep assigns each
  instant of every lease to exactly one bucket, so this single identity
  is the whole "no dollar lost, no dollar double-counted" claim.
* **Zero disabled cost** — an untraced run (``Tracer`` absent) or a
  traced run with ``RunConfig(cost_meter=False)`` constructs no
  ``CostMeter``, executes no code from the ``costmeter`` module, and
  produces bit-identical results.  An untraced run also constructs no
  ``RunObservers`` bundle and executes no code from ``observers``.  Gated on *work executed*
  (deterministic call counts via ``sys.setprofile``), the same way the
  self-profiler's disabled path is gated in ``test_bench_selfprof.py``.
"""

import math
import sys

import numpy as np

from repro.experiments.schemes import make_policy
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.telemetry import Tracer
from repro.telemetry.costmeter import CostMeter
from repro.telemetry.observers import RunObservers
from repro.workloads.models import get_model
from repro.workloads.traces import poisson_trace

DURATION = 60.0


def run_once(tracer=None, config=None):
    model = get_model("resnet50")
    profiles = ProfileService()
    slo = SLO()
    trace = poisson_trace(rate_rps=model.peak_rps, duration=DURATION, seed=0)
    policy = make_policy("paldia", model, profiles, slo.target_seconds, trace)
    run = ServerlessRun(
        model, trace, policy, profiles, slo,
        tracer=tracer, config=config,
    )
    return run.execute(), run


def count_calls_into(fn, *filenames):
    """Python-level calls executed by ``fn`` whose code lives in each of
    ``filenames``, one count per file (deterministic, unlike
    wall-clock)."""
    counts = dict.fromkeys(filenames, 0)

    def profiler(frame, event, arg):
        if event == "call":
            name = frame.f_code.co_filename
            if name in counts:
                counts[name] += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return tuple(counts[name] for name in filenames)


def test_traced_run_conserves_every_dollar():
    result, run = run_once(tracer=Tracer())
    bd = result.cost_breakdown
    assert bd is not None
    assert result.total_cost > 0
    residual = abs(bd.attributed_dollars() - result.total_cost)
    print(f"\ntotal ${result.total_cost:.6f}, "
          f"attribution residual {residual:.3e}")
    assert math.isclose(
        bd.attributed_dollars(), result.total_cost,
        rel_tol=1e-9, abs_tol=1e-12,
    )
    # The per-spec split agrees with the lease records the simulator
    # keeps independently.
    for spec, dollars in bd.spec_dollars.items():
        assert math.isclose(
            dollars, result.cost_by_spec[spec],
            rel_tol=1e-9, abs_tol=1e-12,
        )


def test_untraced_run_executes_no_costmeter_code():
    # The disabled-path contract, gated deterministically: without a
    # tracer the telemetry pillar is never set up, so a run never enters
    # the costmeter module — no CostMeter construction, no hooks — nor
    # the observers module: no RunObservers bundle exists, so every
    # instrumented site pays one attribute load and one ``is None``
    # branch, neither of which is a function call.
    run_once()  # warm-up: lazy profile tables and allocator pools
    constructions = {CostMeter: 0, RunObservers: 0}
    orig_inits = {cls: cls.__init__ for cls in constructions}

    def counting_init(cls):
        def init(self, *a, **kw):
            constructions[cls] += 1
            return orig_inits[cls](self, *a, **kw)
        return init

    import repro.telemetry.costmeter as costmeter_module
    import repro.telemetry.observers as observers_module

    for cls in constructions:
        cls.__init__ = counting_init(cls)
    try:
        meter_calls, obs_calls = count_calls_into(
            run_once, costmeter_module.__file__, observers_module.__file__
        )
    finally:
        for cls, init in orig_inits.items():
            cls.__init__ = init
    print(f"\ncostmeter-module calls in untraced run: {meter_calls}, "
          f"observers-module calls: {obs_calls}, "
          f"CostMeter constructions: {constructions[CostMeter]}, "
          f"RunObservers constructions: {constructions[RunObservers]}")
    assert constructions == {CostMeter: 0, RunObservers: 0}
    assert meter_calls == 0
    assert obs_calls == 0


def test_traced_run_with_meter_disabled_executes_no_costmeter_code():
    # cost_meter=False must disable the meter even on traced runs —
    # the rest of the telemetry pillar (spans, samples) stays on.
    run_once()  # warm-up
    import repro.telemetry.costmeter as costmeter_module

    config = RunConfig(cost_meter=False)
    (meter_calls,) = count_calls_into(
        lambda: run_once(tracer=Tracer(), config=config),
        costmeter_module.__file__,
    )
    print(f"\ncostmeter-module calls with cost_meter=False: {meter_calls}")
    assert meter_calls == 0
    result, _ = run_once(tracer=Tracer(), config=config)
    assert result.cost_breakdown is None


def test_metered_run_is_bit_identical():
    # The meter observes billing events only; it must not perturb the
    # simulation.  Same seed, same trace => identical results with and
    # without the meter installed.
    plain, _ = run_once()
    metered, _ = run_once(tracer=Tracer())
    assert plain.total_cost == metered.total_cost
    assert plain.n_switches == metered.n_switches
    assert plain.cold_starts == metered.cold_starts
    assert np.array_equal(
        plain.metrics.latencies(), metered.metrics.latencies()
    )
