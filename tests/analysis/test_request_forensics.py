"""Tests for tail-latency forensics (`repro.analysis.request_forensics`)
and the trace-report slowest-requests table."""

import numpy as np
import pytest

from repro.analysis.request_forensics import (
    exemplar_requests,
    phase_decomposition,
    render_forensics_report,
    render_waterfall,
    render_waterfall_svg,
    worst_requests,
)
from repro.analysis.trace_report import slowest_request_rows
from repro.telemetry.exporters import TraceData
from repro.telemetry.reqtrace import PHASES, RequestTracer

from tests.telemetry.test_reqtrace import complete, make_batch, make_tracer


@pytest.fixture()
def data():
    """A small trace: three batches, one retry event, one SLO lane."""
    tracer = make_tracer()
    tracer.register_model("resnet50", 0.8)
    complete(tracer, make_batch([0.0, 0.2, 0.4], 1.0, batch_id=0,
                                started_at=0.5, co_run=2, start_fbr=0.9),
             node_id=0)
    tracer.event("retry.dispatch", 2.1, batch_id=1, attempt=1, hardware="T4")
    complete(tracer, make_batch([2.0], 4.5, batch_id=1, hardware="T4",
                                retries=1), node_id=1)
    complete(tracer, make_batch([5.0, 5.1], 5.6, batch_id=2), node_id=0)
    tracer.on_run_end(60.0)
    return tracer.data()


class TestPhaseDecomposition:
    def test_shares_sum_to_one(self, data):
        rows = phase_decomposition(data)
        assert [r["phase"] for r in rows] == list(PHASES)
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)

    def test_percentiles_match_numpy(self, data):
        rows = phase_decomposition(data)
        cols = data.phase_arrays()
        for row in rows:
            vals = cols[row["phase"]]
            assert row["p50"] == pytest.approx(np.percentile(vals, 50))
            assert row["p99"] == pytest.approx(np.percentile(vals, 99))
            assert row["mean"] == pytest.approx(np.mean(vals))

    def test_empty_trace_yields_zero_rows(self):
        rows = phase_decomposition(RequestTracer().data())
        assert all(r["p50"] == 0.0 and r["share"] == 0.0 for r in rows)


class TestWorstAndExemplars:
    def test_worst_ranked_by_latency(self, data):
        worst = worst_requests(data, 3)
        assert [v.rid for v in worst] == [3, 0, 1]  # 2.5, 1.0, 0.8 s
        assert worst[0].batch.retries == 1

    def test_exemplars_filter_by_completion_window(self, data):
        # Only batch 1 (completed at 4.5) falls in [4.0, 5.0].
        hits = exemplar_requests(data, 4.0, 5.0)
        assert [v.rid for v in hits] == [3]
        assert exemplar_requests(data, 100.0, 200.0) == []

    def test_exemplars_worst_first_and_capped(self, data):
        hits = exemplar_requests(data, 0.0, 60.0, k=2)
        assert [v.rid for v in hits] == [3, 0]


class TestWaterfall:
    def test_contains_phases_and_context(self, data):
        view = data.request(3)
        text = render_waterfall(view, data)
        for name in PHASES:
            assert name in text
        assert "request 3 waterfall" in text
        assert "T4" in text
        assert "retry.dispatch" in text  # event during its lifetime
        assert "VIOLATED" in text  # 2.5 s > 0.8 s SLO

    def test_later_arrival_cites_deadline_setter(self, data):
        text = render_waterfall(data.request(1))
        assert "request 0" in text  # deadline set by the first arrival

    def test_report_has_summary_table_and_waterfalls(self, data):
        report = render_forensics_report(data, top_k=2)
        assert "request trace summary" in report
        assert "per-phase latency decomposition" in report
        assert report.count("waterfall") == 2

    def test_empty_report_does_not_crash(self):
        report = render_forensics_report(RequestTracer().data())
        assert "no requests traced" in report


class TestSvg:
    def test_svg_is_self_contained(self, data):
        svg = render_waterfall_svg(data, top_k=3)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<rect") >= 3  # bars + legend swatches
        for name in PHASES:
            assert name in svg
        assert "rid 3" in svg

    def test_empty_svg_still_valid(self):
        svg = render_waterfall_svg(RequestTracer().data())
        assert svg.startswith("<svg") and svg.endswith("</svg>")


class TestSlowestRequestRows:
    def test_causal_rows_from_reqtrace(self, data):
        rows, headers, title = slowest_request_rows(
            TraceData(), 2, reqtrace=data
        )
        assert "causal" in title
        assert headers[0] == "rid"
        assert [r[0] for r in rows] == [3, 0]
        top = dict(zip(headers, rows[0]))
        assert top["top_phase"] in PHASES
        assert top["violated"] == "yes"

    def test_latency_only_fallback_without_reqtrace(self):
        trace = TraceData(spans=[
            {"cat": "request", "start": 0.0, "end": 0.5,
             "attrs": {"n": 2, "hardware": "A100"}},
            {"cat": "request", "start": 1.0, "end": 3.0,
             "attrs": {"n": 1, "hardware": "T4"}},
        ])
        rows, headers, title = slowest_request_rows(trace, 5)
        assert "latency-only" in title and "--reqtrace" in title
        assert headers[0] == "latency_ms"
        assert rows[0][0] == pytest.approx(2000.0)
        assert len(rows) == 2

    def test_fallback_handles_empty_trace(self):
        rows, _, _ = slowest_request_rows(TraceData(), 5)
        assert rows == []
