"""Exporter tests: JSONL round trip and Chrome trace_event output.

The round-trip contract (an acceptance criterion of the telemetry layer):
exporting a trace and importing it back preserves every span and event,
and the Chrome export's timestamps are monotone non-decreasing so
Perfetto and chrome://tracing load it without complaint.
"""

import json
import math

import pytest

from repro.simulator.engine import Simulator
from repro.telemetry import (
    StateSampler,
    TraceData,
    Tracer,
    read_jsonl,
    summary_counts,
    to_chrome_trace,
    to_jsonl_lines,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture
def populated_tracer():
    tr = Tracer()
    tr.meta.update({"scheme": "paldia", "seed": 0})
    tr.span("batch#0", 0.0, 0.2, cat="request", track="p3.2xlarge",
            n=4, batching_wait=0.05, t_max=float("inf"))
    tr.span("batching", 0.0, 0.075, cat="phase", track="p3.2xlarge")
    tr.span("lease:p3.2xlarge", 0.0, 30.0, cat="lease", track="leases",
            cost=0.025)
    tr.event("hardware_selection.tick", 0.5, cat="decision",
             chosen="p3.2xlarge",
             candidates=[{"hw": "c6i.4xlarge", "least_t_max": float("inf")}])
    tr.event("reconfig.switch", 1.0, from_hw="c6i.4xlarge", to_hw="p3.2xlarge")
    sim = Simulator()
    sampler = tr.timeseries = StateSampler(1.0)
    sampler.probes(("cold_starts",), lambda: 2.0)
    sampler.probes(("queue_depth",), lambda: 5.0)
    sampler.probes(("idle_spec.occupancy",), lambda: math.nan)
    sampler.start(sim, horizon=2.0)
    sim.run()
    return tr


class TestJsonlRoundTrip:
    def test_counts_survive_round_trip(self, populated_tracer, tmp_path):
        path = str(tmp_path / "run.jsonl")
        n_lines = write_jsonl(populated_tracer, path)
        data = read_jsonl(path)
        assert len(data.spans) == len(populated_tracer.spans)
        assert len(data.events) == len(populated_tracer.events)
        # meta + each record = one line each; sampler state is not in it
        assert n_lines == 1 + len(data.spans) + len(data.events)

    def test_summary_counts_identical_both_sides(self, populated_tracer, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_jsonl(populated_tracer, path)
        assert summary_counts(read_jsonl(path)) == summary_counts(populated_tracer)

    def test_meta_and_attrs_preserved(self, populated_tracer, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_jsonl(populated_tracer, path)
        data = read_jsonl(path)
        assert data.meta == {"scheme": "paldia", "seed": 0}
        req = data.spans_in("request")[0]
        assert req["attrs"]["n"] == 4
        assert req["attrs"]["batching_wait"] == 0.05
        tick = data.events_named("hardware_selection.tick")[0]
        assert tick["attrs"]["candidates"][0]["hw"] == "c6i.4xlarge"

    def test_non_finite_floats_become_null(self, populated_tracer):
        # inf T_max (infeasible candidate) must not leak into the JSON.
        for line in to_jsonl_lines(populated_tracer):
            json.loads(line)  # strict parse
            assert "Infinity" not in line and "NaN" not in line

    def test_every_line_is_json(self, populated_tracer, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_jsonl(populated_tracer, path)
        with open(path) as fh:
            for line in fh:
                obj = json.loads(line)
                assert obj["type"] in {"meta", "span", "event"}

    def test_bad_json_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            read_jsonl(str(path))

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record type"):
            read_jsonl(str(path))


class TestChromeTrace:
    def test_timestamps_monotone_non_decreasing(self, populated_tracer):
        doc = to_chrome_trace(populated_tracer)
        stamps = [ev["ts"] for ev in doc["traceEvents"] if "ts" in ev]
        assert stamps == sorted(stamps)

    def test_microsecond_conversion(self, populated_tracer):
        doc = to_chrome_trace(populated_tracer)
        xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        req = next(ev for ev in xs if ev["name"] == "batch#0")
        assert req["ts"] == 0.0
        assert req["dur"] == pytest.approx(0.2e6)

    def test_every_track_gets_a_thread_name(self, populated_tracer):
        doc = to_chrome_trace(populated_tracer)
        named = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert {"p3.2xlarge", "leases", "control-plane"} <= named

    def test_samples_become_counter_events(self, populated_tracer):
        doc = to_chrome_trace(populated_tracer)
        counters = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
        # One event per non-NaN reading: the all-NaN column is skipped.
        assert sorted((ev["name"], ev["ts"]) for ev in counters) == [
            ("cold_starts", 1e6), ("cold_starts", 2e6),
            ("queue_depth", 1e6), ("queue_depth", 2e6),
        ]
        assert all(ev["cat"] == "timeseries" for ev in counters)

    def test_no_counter_events_without_a_sampler(self, populated_tracer):
        populated_tracer.timeseries = None
        doc = to_chrome_trace(populated_tracer)
        assert not [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]

    def test_file_is_strict_json(self, populated_tracer, tmp_path):
        path = str(tmp_path / "run.json")
        n = write_chrome_trace(populated_tracer, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert len(doc["traceEvents"]) == n
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["scheme"] == "paldia"


class TestSummaryCounts:
    def test_counts_on_live_tracer(self, populated_tracer):
        counts = summary_counts(populated_tracer)
        assert counts["spans"] == 3
        assert counts["request_spans"] == 1
        assert counts["requests"] == 4
        assert counts["events"] == 2

    def test_counts_on_empty_trace_data(self):
        counts = summary_counts(TraceData())
        assert counts == {
            "spans": 0, "request_spans": 0, "requests": 0,
            "events": 0,
        }
