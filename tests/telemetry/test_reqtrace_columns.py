"""The request trace's columnar reads against a walk over its records.

:class:`~repro.telemetry.reqtrace.RequestTraceData` keeps the retained
batches as columns and answers worst-K (also within a completion
window, as ``exemplar_requests`` asks), rid lookup, the per-phase
columns and the request iteration with array arithmetic; it builds its
:class:`~repro.telemetry.reqtrace.BatchTrace` records only when they
are read.  This module keeps the record walk (the reads as they were
before the trace was columnar: one :class:`RequestView` per request,
sorted and summed in Python) as a test-only reference and compares the
two on random traces built to hit latency ties, sampling and the tail
reservoir.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PaldiaPolicy, ProfileService, RunConfig, SLO
from repro.analysis.request_forensics import exemplar_requests
from repro import ServerlessRun, get_model
from repro.telemetry import reqtrace
from repro.telemetry.reqtrace import PHASES, RequestView, read_reqtrace
from repro.telemetry.tracer import Tracer
from repro.workloads.traces import poisson_trace
from tests.telemetry.test_reqtrace import complete, make_batch, make_tracer


def walk_requests(data):
    """Every retained request as a view, walking the records."""
    models = data.meta.get("models", {})
    return [RequestView(rec, i, models.get(rec.model))
            for rec in data.records for i in range(rec.size)]


def walk_worst(data, k):
    views = walk_requests(data)
    views.sort(key=lambda v: (-v.latency, v.rid))
    return views[:max(0, k)]


def walk_exemplars(data, t0, t1, k):
    """``exemplar_requests`` as it was: filter the walk, sort, cut."""
    hits = [v for v in walk_requests(data)
            if t0 <= v.batch.completed_at <= t1]
    hits.sort(key=lambda v: (-v.latency, v.rid))
    return hits[:max(0, k)]


def walk_phase_arrays(data):
    cols = {name: [] for name in PHASES}
    lat = []
    for v in walk_requests(data):
        for name, val in v.phases().items():
            cols[name].append(val)
        lat.append(v.latency)
    out = {name: np.asarray(vals, dtype=np.float64)
           for name, vals in cols.items()}
    out["latency"] = np.asarray(lat, dtype=np.float64)
    return out


def same_view(a, b):
    return (a.rid, a.latency, a.phases(), a.violated, a.batch.batch_id) == \
        (b.rid, b.latency, b.phases(), b.violated, b.batch.batch_id)


#: One batch: its size, arrival step and latency step.  Times sit on a
#: grid of exact binary fractions, so latencies tie often.
batch_specs = st.lists(
    st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(1, 6)),
    min_size=0, max_size=25,
)


@st.composite
def traced(draw):
    """A frozen trace of random batches, sampling rate and tail."""
    batches, t = [], 0.0
    for i, (n, gap, late) in enumerate(draw(batch_specs)):
        t += 0.25 * gap
        arrivals = t + 0.125 * np.arange(n)
        batches.append(make_batch(arrivals, float(arrivals[-1]) + 0.5 * late,
                                  batch_id=draw(st.integers(0, 3)) * 100 + i))
    tracer = make_tracer(
        sample=draw(st.sampled_from((0.0, 0.3, 1.0))),
        tail_k=draw(st.integers(0, 6)),
        seed=draw(st.integers(0, 5)),
    )
    tracer.register_model("resnet50", 1.0)
    for batch in batches:
        # Some batches are read as they complete, the rest at freeze.
        if draw(st.booleans()):
            complete(tracer, batch)
        else:
            tracer.collector.record_batch(batch, node_id=0)
    return tracer.data()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=traced(), k=st.integers(0, 30))
def test_columnar_reads_match_the_record_walk(data, k):
    walked = walk_requests(data)
    assert len(walked) == data.n_requests_traced
    assert all(same_view(a, b) for a, b in
               zip(data.iter_requests(), walked, strict=True))
    want = walk_worst(data, k)
    got = data.worst(k)
    assert [v.rid for v in got] == [v.rid for v in want]
    assert all(same_view(a, b) for a, b in zip(got, want))
    cols, ref = data.phase_arrays(), walk_phase_arrays(data)
    assert set(cols) == set(ref)
    for name in ref:
        assert np.array_equal(cols[name], ref[name]), name
    for v in walked:
        assert same_view(data.request(v.rid), v)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=traced(), k=st.integers(0, 12),
       bounds=st.tuples(st.integers(0, 60), st.integers(0, 60)))
def test_exemplars_match_the_record_walk(data, k, bounds):
    # Window edges on the trace's time grid, so completions sit on them.
    t0, t1 = (0.125 * b for b in sorted(bounds))
    got = exemplar_requests(data, t0, t1, k)
    want = walk_exemplars(data, t0, t1, k)
    assert [v.rid for v in got] == [v.rid for v in want]
    assert all(same_view(a, b) for a, b in zip(got, want))


@settings(max_examples=40, deadline=None)
@given(data=traced())
def test_jsonl_round_trip_keeps_the_columns(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "trace.jsonl"
    data.save_jsonl(str(path))
    loaded = read_reqtrace(str(path))
    assert loaded.meta == data.meta
    assert loaded.events == data.events
    for name in loaded.rows.rows.dtype.names:
        assert np.array_equal(loaded.rows[name], data.rows[name],
                              equal_nan=name == "started_at"), name
    assert np.array_equal(loaded.rows.arrivals, data.rows.arrivals)
    for name in ("first_rid", "sampled"):
        assert np.array_equal(getattr(loaded, name), getattr(data, name))
    again = path.with_suffix(".again")
    loaded.save_jsonl(str(again))
    assert again.read_bytes() == path.read_bytes()


def test_reader_sorts_lines_into_rid_order(tmp_path):
    tracer = make_tracer([make_batch([0.0, 0.5], 2.0, batch_id=7),
                          make_batch([1.0], 1.5, batch_id=8)])
    path = tmp_path / "trace.jsonl"
    tracer.data().save_jsonl(str(path))
    meta, first, second = path.read_text().splitlines()
    path.write_text("\n".join([meta, second, first]) + "\n")
    loaded = read_reqtrace(str(path))
    assert [r.batch_id for r in loaded.records] == [7, 8]
    assert [v.rid for v in loaded.iter_requests()] == [0, 1, 2]
    assert loaded.request(2).arrival == 1.0


def test_traced_run_builds_records_only_when_read(monkeypatch):
    built = []
    batch_trace = reqtrace.BatchTrace

    def counting(*args):
        built.append(args[0])
        return batch_trace(*args)

    monkeypatch.setattr(reqtrace, "BatchTrace", counting)
    model, profiles, slo = get_model("resnet50"), ProfileService(), SLO()
    trace = poisson_trace(rate_rps=model.peak_rps, duration=10.0, seed=0)
    result = ServerlessRun(
        model, trace, PaldiaPolicy(model, profiles, slo.target_seconds),
        profiles, slo, RunConfig(reqtrace=True), tracer=Tracer(),
    ).execute()
    data = result.reqtrace
    worst = data.worst(3)
    assert data.n_requests_traced == result.completed_requests
    assert built == [v.batch.batch_id for v in worst]
    built.clear()
    t1 = max(v.batch.completed_at for v in worst)
    exemplars = exemplar_requests(data, t1 - 1.0, t1, k=3)
    assert len(exemplars) == 3
    assert built == [v.batch.batch_id for v in exemplars]
    built.clear()
    records = data.records
    assert len(built) == len(records) == data.meta["n_batches_traced"]
    assert data.records is records
