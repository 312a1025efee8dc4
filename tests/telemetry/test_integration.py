"""End-to-end telemetry acceptance tests on a real (small) traced run.

The two headline contracts:

1. A traced run's per-request breakdown sums — recomputed from the trace
   file alone — match what :class:`MetricsCollector` reported live.
2. A run with tracing disabled is bit-identical to an untraced run.
"""

import json
import math

import numpy as np
import pytest

from repro.analysis.trace_report import (
    BREAKDOWN_COMPONENTS,
    breakdown_totals,
    decision_rows,
    render_trace_report,
)
from repro.experiments.schemes import make_policy
from repro.framework.system import RunConfig, ServerlessRun
from repro.simulator.chaos import ChaosSpec, PeriodicOutage
from repro.telemetry import Tracer, read_jsonl, to_chrome_trace, write_jsonl
from repro.workloads.traces import poisson_trace

DURATION = 20.0


def run_once(resnet50, profiles, slo, tracer=None):
    trace = poisson_trace(
        rate_rps=resnet50.peak_rps, duration=DURATION, seed=0
    )
    policy = make_policy("paldia", resnet50, profiles, slo.target_seconds, trace)
    run = ServerlessRun(resnet50, trace, policy, profiles, slo, tracer=tracer)
    return run.execute()


# conftest fixtures are function-scoped; re-declare the cheap ones at
# module scope so one simulated run can feed every assertion below.
@pytest.fixture(scope="module")
def resnet50():
    from repro.workloads.models import get_model

    return get_model("resnet50")


@pytest.fixture(scope="module")
def profiles():
    from repro.hardware.profiles import ProfileService

    return ProfileService()


@pytest.fixture(scope="module")
def slo():
    from repro.framework.slo import SLO

    return SLO()


@pytest.fixture(scope="module")
def traced_run(resnet50, profiles, slo):
    tracer = Tracer()
    result = run_once(resnet50, profiles, slo, tracer=tracer)
    return result, tracer


class TestBreakdownAgreement:
    def test_trace_breakdown_matches_collector(self, traced_run):
        result, tracer = traced_run
        totals = breakdown_totals(_as_trace_data(tracer))
        rows = result.metrics.log.rows()
        for component in BREAKDOWN_COMPONENTS:
            collector_sum = float(rows[component].sum())
            assert totals[component] == pytest.approx(
                collector_sum, abs=1e-9
            ), component

    def test_request_counts_match(self, traced_run):
        result, tracer = traced_run
        totals = breakdown_totals(_as_trace_data(tracer))
        assert int(totals["n_requests"]) == result.completed_requests

    def test_span_intervals_are_the_batch_latencies(self, traced_run):
        result, tracer = traced_run
        span_ends = sorted(s.end for s in tracer.request_spans())
        record_ends = sorted(result.metrics.log.rows()["completed_at"])
        assert span_ends == pytest.approx(record_ends)


def _as_trace_data(tracer):
    # Round trip through the JSONL format: the breakdown must be
    # recoverable from the *file*, not the live objects.
    import os
    import tempfile

    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        write_jsonl(tracer, path)
        return read_jsonl(path)
    finally:
        os.unlink(path)


class TestDisabledIsIdentical:
    def test_disabled_tracer_bit_identical(self, resnet50, profiles, slo):
        untraced = run_once(resnet50, profiles, slo, tracer=None)
        disabled = run_once(
            resnet50, profiles, slo, tracer=Tracer(enabled=False)
        )
        assert untraced.total_cost == disabled.total_cost
        assert untraced.n_switches == disabled.n_switches
        assert np.array_equal(
            untraced.metrics.latencies(), disabled.metrics.latencies()
        )

    def test_enabled_tracer_does_not_perturb_the_run(self, traced_run,
                                                     resnet50, profiles, slo):
        result, _ = traced_run
        untraced = run_once(resnet50, profiles, slo, tracer=None)
        assert result.total_cost == untraced.total_cost
        assert result.n_switches == untraced.n_switches
        assert np.array_equal(
            result.metrics.latencies(), untraced.metrics.latencies()
        )


class TestRunArtifacts:
    def test_every_selector_tick_audited(self, traced_run):
        result, tracer = traced_run
        ticks = tracer.events_named("hardware_selection.tick")
        # One tick per monitor interval over the horizon (modulo drain).
        assert len(ticks) >= int(DURATION / 0.5)
        for e in ticks:
            assert e.attrs["candidates"]
            assert "wait_ctr" in e.attrs

    def test_decision_rows_parse_from_file(self, traced_run, tmp_path):
        _, tracer = traced_run
        path = str(tmp_path / "run.jsonl")
        write_jsonl(tracer, path)
        rows = decision_rows(path)
        assert rows and all(r["chosen"] for r in rows)
        times = [r["t"] for r in rows]
        assert times == sorted(times)

    def test_chrome_export_loads_and_is_monotone(self, traced_run):
        _, tracer = traced_run
        doc = json.loads(json.dumps(to_chrome_trace(tracer)))
        stamps = [ev["ts"] for ev in doc["traceEvents"] if "ts" in ev]
        assert stamps == sorted(stamps)
        assert all(math.isfinite(float(ts)) for ts in stamps)

    def test_sampler_columns_cover_the_run(self, traced_run):
        _, tracer = traced_run
        sampler = tracer.timeseries
        times = sampler.times()
        assert times.size >= int(DURATION / sampler.interval_seconds) - 1
        assert times[-1] >= DURATION
        assert sampler.column("pool.warm_idle").size == times.size

    def test_trace_report_renders(self, traced_run, tmp_path):
        _, tracer = traced_run
        path = str(tmp_path / "run.jsonl")
        write_jsonl(tracer, path)
        text = render_trace_report(path)
        assert "latency breakdown" in text
        assert "hardware-selection audit" in text
        assert "injected failures" not in text  # no faults were injected

    def test_trace_report_renders_chaos_faults(self, resnet50, profiles, slo,
                                               tmp_path):
        trace = poisson_trace(
            rate_rps=resnet50.peak_rps, duration=DURATION, seed=0
        )
        policy = make_policy(
            "paldia", resnet50, profiles, slo.target_seconds, trace
        )
        tracer = Tracer()
        config = RunConfig(chaos=ChaosSpec(faults=(
            PeriodicOutage(12.0, 4.0, first_failure_at=5.0),
        )))
        ServerlessRun(
            resnet50, trace, policy, profiles, slo, config, tracer=tracer
        ).execute()
        path = str(tmp_path / "run.jsonl")
        write_jsonl(tracer, path)
        text = render_trace_report(path)
        # Onsets at t=5 and t=17; the next (t=29) is past the horizon.
        assert "injected failures (2)" in text
        table = text[text.index("injected failures"):]
        assert "kind" in table.splitlines()[1]
        assert table.count("periodic_outage") == 2
