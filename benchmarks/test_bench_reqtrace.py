"""Request-tracer gates: conservation, exact worst-K, zero disabled cost.

The per-request tracing PR's acceptance contracts, on a fixed mid-size
traced scenario:

* **Conservation** — every traced request's six causal phases telescope
  to its own end-to-end latency to 1e-9: the waterfall explains all of
  the latency, never more, never less.
* **Exact worst-K** — ``RequestTraceData.worst(k)`` matches a brute-force
  sort of ``MetricsCollector.latencies()``, and request ids index that
  array exactly; both hold under sampling (the tail reservoir keeps the
  worst ``tail_k`` batches at any rate).
* **Zero disabled cost** — an untraced run, or a traced run with
  ``RunConfig(reqtrace=False)`` (the default), constructs no
  ``RequestTracer`` and executes no code from the ``reqtrace`` module;
  every hook site pays one attribute load and one ``is None`` branch.
  The untraced run executes no code from the ``observers`` module either
  (no bundle exists to call).
  Gated on *work executed* (deterministic call counts via
  ``sys.setprofile``), like the cost meter's in
  ``test_bench_costmeter.py``.
* **Bit-identity** — tracing observes; it never perturbs.  A traced run
  produces identical latencies, cost, and switch counts to an untraced
  one.
"""

import sys

import numpy as np

from repro.experiments.schemes import make_policy
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.telemetry import Tracer
from repro.telemetry.reqtrace import RequestTracer
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


def traced_once(**config_kwargs):
    config = RunConfig(reqtrace=True, **config_kwargs)
    return run_once(tracer=Tracer(), config=config)


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


def test_every_request_waterfall_conserves_latency():
    result, _ = traced_once()
    data = result.reqtrace
    assert data is not None
    assert data.n_requests_traced == result.completed_requests
    worst_residual = max(
        v.conservation_residual() for v in data.iter_requests()
    )
    print(f"\n{data.n_requests_traced} requests traced, "
          f"max conservation residual {worst_residual:.3e}")
    assert worst_residual < 1e-9


def test_worst_k_matches_brute_force_and_rids_index_latencies():
    result, run = traced_once()
    data = result.reqtrace
    latencies = run.metrics.latencies()
    # rid r is the r-th completed request: the trace's latency for every
    # traced request equals the collector's at the same index.
    for view in data.iter_requests():
        assert view.latency == latencies[view.rid]
    brute = np.argsort(-latencies, kind="stable")[:10]
    worst = data.worst(10)
    print(f"\nworst request {worst[0].rid}: {worst[0].latency * 1e3:.1f} ms")
    assert [v.rid for v in worst] == list(brute)
    assert [v.latency for v in worst] == list(latencies[brute])


def test_worst_k_stays_exact_under_sampling():
    full, _ = traced_once()
    sampled, run = traced_once(reqtrace_sample=0.25)
    data = sampled.reqtrace
    kept = data.meta["n_batches_traced"]
    seen = data.meta["n_batches_seen"]
    print(f"\nsampling kept {kept} of {seen} batches")
    assert kept < seen  # the sampler actually dropped something
    assert data.n_requests_traced < sampled.completed_requests
    # The tail reservoir makes worst-K exact anyway, with the same rids.
    assert [v.rid for v in data.worst(5)] == \
           [v.rid for v in full.reqtrace.worst(5)]
    latencies = run.metrics.latencies()
    for view in data.iter_requests():
        assert view.latency == latencies[view.rid]


def test_untraced_run_executes_no_reqtrace_code():
    # The disabled-path contract, gated deterministically: with no
    # tracer (or reqtrace=False, the default) the run never enters the
    # reqtrace module — no RequestTracer construction, no hooks.
    run_once()  # warm-up: lazy profile tables and allocator pools
    constructions = 0
    orig_init = RequestTracer.__init__

    def counting_init(self, *a, **kw):
        nonlocal constructions
        constructions += 1
        return orig_init(self, *a, **kw)

    import repro.telemetry.observers as observers_module
    import repro.telemetry.reqtrace as reqtrace_module

    RequestTracer.__init__ = counting_init
    try:
        untraced_calls, untraced_obs_calls = count_calls_into(
            run_once, reqtrace_module.__file__, observers_module.__file__
        )
        (default_calls,) = count_calls_into(
            lambda: run_once(tracer=Tracer()), reqtrace_module.__file__
        )
    finally:
        RequestTracer.__init__ = orig_init
    print(f"\nreqtrace-module calls: untraced {untraced_calls}, "
          f"traced-with-default-config {default_calls}, "
          f"constructions {constructions}; observers-module calls "
          f"untraced {untraced_obs_calls}")
    assert constructions == 0
    assert untraced_calls == 0
    assert default_calls == 0
    assert untraced_obs_calls == 0


def test_traced_run_is_bit_identical():
    # The request tracer observes completions; it must not perturb the
    # simulation.  Same seed, same trace => identical results with and
    # without per-request tracing.
    plain, plain_run = run_once()
    traced, traced_run = traced_once()
    assert plain.total_cost == traced.total_cost
    assert plain.n_switches == traced.n_switches
    assert plain.cold_starts == traced.cold_starts
    assert np.array_equal(
        plain_run.metrics.latencies(), traced_run.metrics.latencies()
    )
