"""Telemetry overhead guard.

Two contracts from the observability PR:

* a fully-traced run (spans + decision events + cost meter) stays
  within 10% of the untraced wall-clock on a mid-size workload;
* the disabled tracer adds no measurable overhead to the engine hot
  loop — the ``tracer.enabled`` guard is the entire disabled-path cost.

Both are best-of-N ``perf_counter`` comparisons rather than
pytest-benchmark fixtures: ratio assertions need paired timings from the
same process and moment, not calibrated statistics.
"""

import sys
from time import perf_counter

import numpy as np

from repro.experiments.schemes import make_policy
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator.engine import Simulator
from repro.telemetry import NULL_TRACER, Tracer
from repro.workloads.models import get_model
from repro.workloads.traces import poisson_trace

DURATION = 60.0
ROUNDS = 5


def run_once(tracer, config=None):
    model = get_model("resnet50")
    profiles = ProfileService()
    slo = SLO()
    trace = poisson_trace(rate_rps=model.peak_rps, duration=DURATION, seed=0)
    policy = make_policy("paldia", model, profiles, slo.target_seconds, trace)
    run = ServerlessRun(
        model, trace, policy, profiles, slo, config=config, tracer=tracer
    )
    return run.execute()


def best_of(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def best_of_paired(fn_a, fn_b, rounds=ROUNDS):
    """Best-of-N with the two variants interleaved round by round, so
    machine drift (thermal, page cache, a noisy neighbour) hits both."""
    best_a = best_b = float("inf")
    fn_a()  # shared warm-up: imports, profile tables, allocator pools
    for _ in range(rounds):
        t0 = perf_counter()
        fn_a()
        best_a = min(best_a, perf_counter() - t0)
        t0 = perf_counter()
        fn_b()
        best_b = min(best_b, perf_counter() - t0)
    return best_a, best_b


def test_traced_run_within_10_percent():
    # Tracing proper: spans + decision events + cost meter.  The SLO
    # monitor and the time-series sampler (the only periodic state
    # sampling) are separate subsystems with their own budget tests below.
    untraced, traced = best_of_paired(
        lambda: run_once(None),
        lambda: run_once(
            Tracer(),
            config=RunConfig(
                slo_monitor_window_seconds=0.0,
                timeseries_interval_seconds=0.0,
            ),
        ),
    )
    ratio = traced / untraced
    print(f"\nuntraced {untraced * 1e3:.1f} ms, traced {traced * 1e3:.1f} ms, "
          f"ratio {ratio:.3f}")
    assert ratio <= 1.10, (
        f"tracing overhead {100 * (ratio - 1):.1f}% exceeds the 10% budget"
    )


def test_disabled_tracer_adds_no_engine_overhead():
    # Pure engine hot loop: N events whose callback does one guarded
    # emission, exactly like an instrumented hook site.
    n_events = 50_000

    def loop(tracer):
        sim = Simulator()

        def hook():
            if tracer.enabled:
                tracer.event("bench.tick", sim.now)

        for i in range(n_events):
            sim.schedule_at(i * 1e-3, hook)
        sim.run()

    class Bare:
        enabled = False

    baseline = best_of(lambda: loop(Bare()), rounds=5)
    disabled = best_of(lambda: loop(NULL_TRACER), rounds=5)
    ratio = disabled / baseline
    print(f"\nbare {baseline * 1e3:.1f} ms, NULL_TRACER {disabled * 1e3:.1f} ms, "
          f"ratio {ratio:.3f}")
    # "No measurable overhead": identical code shape, so only scheduler
    # noise separates them.  5% absorbs timer jitter on a shared box.
    assert ratio <= 1.05


def test_disabled_tracer_schedules_no_sampler_events():
    result_disabled = run_once(Tracer(enabled=False))
    result_untraced = run_once(None)
    assert result_disabled.total_cost == result_untraced.total_cost
    assert (
        result_disabled.metrics.completed_requests()
        == result_untraced.metrics.completed_requests()
    )


def test_disabled_slo_monitor_leaves_run_bit_identical():
    # The monitor is a pure observer: switching it off (window <= 0) on a
    # traced run changes nothing but the slo_alert events; an untraced
    # run never constructs one at all.
    with_monitor = run_once(Tracer())
    without_monitor = run_once(
        Tracer(), config=RunConfig(slo_monitor_window_seconds=0.0)
    )
    untraced = run_once(None)
    for a, b in ((with_monitor, without_monitor),
                 (without_monitor, untraced)):
        assert a.total_cost == b.total_cost
        assert a.n_switches == b.n_switches
        assert np.array_equal(a.metrics.latencies(), b.metrics.latencies())


def test_slo_monitor_overhead_within_budget():
    # The monitor rides the existing telemetry tick with O(1) running
    # totals per window (p99 only on alert transitions); same 10% budget
    # as tracing itself.
    without, with_monitor = best_of_paired(
        lambda: run_once(
            Tracer(),
            config=RunConfig(
                slo_monitor_window_seconds=0.0,
                timeseries_interval_seconds=0.0,
            ),
        ),
        lambda: run_once(
            Tracer(), config=RunConfig(timeseries_interval_seconds=0.0)
        ),
    )
    ratio = with_monitor / without
    print(f"\nmonitor off {without * 1e3:.1f} ms, on "
          f"{with_monitor * 1e3:.1f} ms, ratio {ratio:.3f}")
    assert ratio <= 1.10


def count_calls(fn):
    """Number of Python function calls executed by ``fn``.

    Deterministic where wall-clock is not: on a shared box two identical
    workloads can differ by several percent in elapsed time, but they
    execute the same number of calls every time.
    """
    n = 0

    def profiler(frame, event, arg):
        nonlocal n
        if event == "call":
            n += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return n


def test_sampler_disabled_costs_under_one_percent():
    # The tentpole contract: with the time-series interval <= 0 an
    # untraced run pays nothing for the sampler's existence — no events
    # scheduled, no buffers allocated, no probes registered.  Gate on
    # work actually executed (function calls), which is deterministic;
    # wall-clock only sanity-checks at a noise-absorbing bound.
    run_once(None)  # warm-up: lazy profile tables and caches
    calls_off = count_calls(
        lambda: run_once(
            None, config=RunConfig(timeseries_interval_seconds=0.0)
        )
    )
    calls_baseline = count_calls(lambda: run_once(None))
    call_ratio = calls_off / calls_baseline
    sampling_off, baseline = best_of_paired(
        lambda: run_once(
            None, config=RunConfig(timeseries_interval_seconds=0.0)
        ),
        lambda: run_once(None),  # default config: untraced, no sampler
    )
    wall_ratio = sampling_off / baseline
    print(f"\nsampler-off {calls_off} calls vs untraced {calls_baseline} "
          f"({100 * (call_ratio - 1):+.3f}%); wall {sampling_off * 1e3:.1f}"
          f" ms vs {baseline * 1e3:.1f} ms, ratio {wall_ratio:.3f}")
    assert call_ratio <= 1.01, (
        f"disabled sampler executes {100 * (call_ratio - 1):.2f}% more "
        f"calls, budget is 1%"
    )
    assert wall_ratio <= 1.10  # gross-regression guard only; see above


def test_sampler_enabled_overhead_within_budget():
    # Sampling on (default 0.5 s interval, 6 readers filling 33 columns)
    # vs the same traced run with sampling off: one event per interval
    # plus one float store per column.  Rides the same 10% budget as the
    # other subsystems.
    off, on = best_of_paired(
        lambda: run_once(
            Tracer(), config=RunConfig(timeseries_interval_seconds=0.0)
        ),
        lambda: run_once(Tracer()),
    )
    ratio = on / off
    print(f"\nsampling off {off * 1e3:.1f} ms, on {on * 1e3:.1f} ms, "
          f"ratio {ratio:.3f}")
    assert ratio <= 1.10


def test_sampler_disabled_run_bit_identical():
    # The sampler is a pure observer: enabling it on a traced run must
    # not perturb the simulation itself.
    with_sampler = run_once(Tracer())
    without_sampler = run_once(
        Tracer(), config=RunConfig(timeseries_interval_seconds=0.0)
    )
    assert with_sampler.total_cost == without_sampler.total_cost
    assert with_sampler.n_switches == without_sampler.n_switches
    assert np.array_equal(
        with_sampler.metrics.latencies(),
        without_sampler.metrics.latencies(),
    )
