"""Tests for the per-request causal tracer (`repro.telemetry.reqtrace`).

The end-to-end contracts (conservation over a real run, bit-identity,
zero calls when disabled) are gated in ``benchmarks/test_bench_reqtrace.py``;
these are the unit-level ones: sampling determinism, tail retention,
rid bookkeeping, the derived per-request views, and the JSONL round trip.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.framework.request import Batch
from repro.simulator.metrics import MetricsCollector
from repro.telemetry.reqtrace import (
    PHASES,
    REQTRACE_SCHEMA,
    RequestTracer,
    read_reqtrace,
    sampled_batch,
)


def make_batch(
    arrivals,
    completed_at,
    *,
    batch_id,
    model_name="resnet50",
    hardware="A100",
    mode="spatial",
    retries=0,
):
    """A completed batch whose breakdown conserves first-arrival latency."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    batch = Batch(
        model=SimpleNamespace(name=model_name),
        arrivals=arrivals,
        dispatched_at=float(arrivals[-1]),
        mode=mode,
        batch_id=batch_id,
    )
    batch.hardware_name = hardware
    batch.retries = retries
    batch.breakdown.batching_wait = float(arrivals[-1] - arrivals[0])
    batch.breakdown.exec_solo = completed_at - float(arrivals[-1])
    batch.complete(completed_at)
    return batch


def make_tracer(batches=(), **kwargs):
    """A tracer reading a log of ``batches``; returns it with the log's
    collector attached as ``tracer.collector`` for further batches."""
    tracer = RequestTracer(**kwargs)
    tracer.collector = MetricsCollector()
    tracer.attach(tracer.collector.log)
    for batch in batches:
        tracer.collector.record_batch(batch, node_id=0)
    return tracer


def complete(tracer, batch, node_id=0):
    """Log ``batch`` as completed and let the tracer read it."""
    tracer.collector.record_batch(batch, node_id)
    tracer.on_batch_complete()


class TestSampledBatch:
    def test_boundaries(self):
        assert sampled_batch(0, 7, 1.0)
        assert not sampled_batch(0, 7, 0.0)

    def test_deterministic(self):
        picks = [sampled_batch(3, bid, 0.5) for bid in range(200)]
        assert picks == [sampled_batch(3, bid, 0.5) for bid in range(200)]

    def test_fraction_close_to_sample(self):
        kept = sum(sampled_batch(0, bid, 0.5) for bid in range(4000))
        assert 0.45 < kept / 4000 < 0.55

    def test_seed_changes_the_set(self):
        a = {bid for bid in range(500) if sampled_batch(0, bid, 0.5)}
        b = {bid for bid in range(500) if sampled_batch(1, bid, 0.5)}
        assert a != b

    @given(
        seed=st.integers(0, 2**31),
        bid=st.integers(0, 2**62),
        p1=st.floats(0.0, 1.0),
        p2=st.floats(0.0, 1.0),
    )
    def test_monotone_in_sample_rate(self, seed, bid, p1, p2):
        # Raising the sampling rate only ever *adds* batches: the kept
        # set at p1 is a subset of the kept set at p2 >= p1.  This is
        # what makes sampled runs comparable across rates.
        lo, hi = sorted((p1, p2))
        if sampled_batch(seed, bid, lo):
            assert sampled_batch(seed, bid, hi)

    @given(seed=st.integers(0, 2**31), bid=st.integers(0, 2**62))
    def test_pure_function_of_inputs(self, seed, bid):
        assert sampled_batch(seed, bid, 0.5) == sampled_batch(seed, bid, 0.5)


class TestRequestTracerValidation:
    def test_sample_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RequestTracer(sample=1.5)
        with pytest.raises(ValueError):
            RequestTracer(sample=-0.1)

    def test_negative_tail_rejected(self):
        with pytest.raises(ValueError):
            RequestTracer(tail_k=-1)


class TestRidAssignment:
    def test_rids_index_completion_order(self):
        tracer = make_tracer([
            make_batch([0.0, 0.1, 0.2], 1.0, batch_id=10),
            make_batch([0.5], 2.0, batch_id=11),
        ])
        data = tracer.data()
        assert [v.rid for v in data.iter_requests()] == [0, 1, 2, 3]
        assert data.request(3).batch.batch_id == 11

    def test_rids_advance_past_sampled_out_batches(self):
        # rid must stay in lockstep with the metrics collector even for
        # batches that are neither sampled nor in the tail reservoir.
        tracer = make_tracer(sample=0.0, tail_k=1)
        # lat 5.0 -> tail
        complete(tracer, make_batch([0.0, 0.1], 5.0, batch_id=0))
        # lat 0.5 -> discarded
        complete(tracer, make_batch([1.0], 1.5, batch_id=1))
        # lat 7.0 -> evicts batch 0
        complete(tracer, make_batch([2.0, 2.1, 2.2], 9.0, batch_id=2))
        data = tracer.data()
        assert tracer.n_requests_seen == 6
        assert [r.first_rid for r in data.records] == [3]
        assert [v.rid for v in data.iter_requests()] == [3, 4, 5]

    def test_request_lookup_raises_for_missing_rid(self):
        tracer = make_tracer([make_batch([0.0], 1.0, batch_id=0)])
        data = tracer.data()
        assert data.request(0).rid == 0
        with pytest.raises(KeyError):
            data.request(1)
        with pytest.raises(KeyError):
            data.request(-1)


class TestTailReservoir:
    def test_keeps_worst_k_batches(self):
        latencies = [3.0, 9.0, 1.0, 7.0, 5.0]
        batches = [
            make_batch([float(i)], i + lat, batch_id=i)
            for i, lat in enumerate(latencies)
        ]
        tracer = make_tracer(batches, sample=0.0, tail_k=2)
        kept = {r.batch_id for r in tracer.data().records}
        assert kept == {1, 3}  # latencies 9.0 and 7.0

    def test_evicted_sampled_batches_are_retained(self):
        # A batch kept by the *sampler* must survive tail eviction.
        tracer = make_tracer(sample=1.0, tail_k=1)
        for i, lat in enumerate([3.0, 9.0]):
            complete(tracer, make_batch([float(i)], i + lat, batch_id=i))
        kept = {r.batch_id for r in tracer.data().records}
        assert kept == {0, 1}

    def test_tail_zero_disables_reservoir(self):
        tracer = make_tracer(
            [make_batch([0.0], 9.0, batch_id=0)], sample=0.0, tail_k=0
        )
        assert tracer.data().records == []


class TestPhases:
    def test_conservation_per_request(self):
        batch = make_batch([0.0, 0.3, 0.7], 2.0, batch_id=0)
        tracer = make_tracer([batch])
        for view in tracer.data().iter_requests():
            assert view.conservation_residual() < 1e-12

    def test_batching_wait_is_personal(self):
        # Later arrivals waited less for the same dispatch instant; the
        # other five phases are shared batch-wide.
        batch = make_batch([0.0, 0.4], 2.0, batch_id=0)
        data = make_tracer([batch]).data()
        first, second = data.iter_requests()
        p0, p1 = first.phases(), second.phases()
        assert p0["batching_wait"] - p1["batching_wait"] == pytest.approx(0.4)
        for name in PHASES[1:]:
            assert p0[name] == p1[name]
        assert second.deadline_rid == first.rid

    def test_slo_verdict_from_registered_model(self):
        tracer = make_tracer([make_batch([0.0, 0.8], 1.0, batch_id=0)])
        tracer.register_model("resnet50", 0.5)
        slow, fast = tracer.data().iter_requests()
        assert slow.violated is True  # 1.0 s latency > 0.5 s SLO
        assert fast.violated is False  # 0.2 s latency
        assert slow.slo_seconds == 0.5

    def test_verdict_none_without_slo(self):
        data = make_tracer([make_batch([0.0], 9.0, batch_id=0)]).data()
        assert next(data.iter_requests()).violated is None

    def test_worst_matches_brute_force(self):
        rng = np.random.default_rng(7)
        batches = []
        t = 0.0
        for i in range(40):
            n = int(rng.integers(1, 5))
            arrivals = np.sort(t + rng.uniform(0, 0.5, size=n))
            batches.append(make_batch(
                arrivals, float(arrivals[-1] + rng.uniform(0.1, 3.0)),
                batch_id=i,
            ))
            t += 1.0
        data = make_tracer(batches).data()
        brute = sorted(data.iter_requests(), key=lambda v: (-v.latency, v.rid))
        assert [v.rid for v in data.worst(7)] == [v.rid for v in brute[:7]]

    def test_execute_start_context_lands_on_batch(self):
        tracer = make_tracer()
        # A retried batch starts twice; the last start is the one that
        # completed.
        tracer.on_execute_start(5, 0.1, "V100", co_run=1, total_fbr=0.5)
        tracer.on_execute_start(6, 0.2, "A100", co_run=2, total_fbr=1.0)
        tracer.on_execute_start(5, 0.4, "A100", co_run=3, total_fbr=1.5)
        complete(tracer, make_batch([0.0], 1.0, batch_id=5), node_id=2)
        (rec,) = tracer.data().records
        assert (rec.co_run, rec.total_fbr, rec.started_at) == (3, 1.5, 0.4)
        assert rec.node_id == 2


class TestEvents:
    def test_event_cap_counts_drops(self):
        tracer = RequestTracer(event_cap=2)
        for i in range(5):
            tracer.event("node.release", float(i), node_id=i)
        assert len(tracer.data().events) == 2
        assert tracer.events_dropped == 3
        assert tracer.data().meta["events_dropped"] == 3

    def test_events_between_filters_inclusive(self):
        tracer = RequestTracer()
        tracer.event("node.acquire", 1.0, node_id=0, spec="g4",
                     ready_at=2.0, instant=False)
        tracer.event("breaker", 2.0, target="node", state="open")
        tracer.event("node.release", 5.0, node_id=0)
        between = tracer.data().events_between(1.0, 2.0)
        assert [e["kind"] for e in between] == ["node.acquire", "breaker"]

    def test_run_end_sets_the_horizon(self):
        tracer = RequestTracer()
        assert tracer.data().meta["horizon"] == 0.0
        tracer.on_run_end(10.0)
        assert tracer.data().meta["horizon"] == 10.0


class TestRoundTrip:
    def _sample_tracer(self):
        tracer = make_tracer(sample=0.9, tail_k=8, seed=3)
        tracer.register_model("resnet50", 0.5)
        tracer.on_execute_start(0, 0.5, "A100", 2, 0.8)
        complete(tracer, make_batch([0.0, 0.25], 1.0, batch_id=0), node_id=1)
        tracer.event("retry.dispatch", 0.2, batch_id=0, attempt=1,
                     hardware="A100")
        tracer.on_run_end(60.0)
        return tracer

    def test_save_load_round_trips(self, tmp_path):
        data = self._sample_tracer().data()
        path = str(tmp_path / "run.reqtrace.jsonl")
        n_lines = data.save_jsonl(path)
        assert n_lines == 1 + len(data.records) + len(data.events)
        loaded = read_reqtrace(path)
        assert loaded.meta == data.meta
        assert loaded.events == data.events
        assert len(loaded.records) == len(data.records)
        for a, b in zip(loaded.records, data.records):
            assert a.phases == b.phases
            assert np.array_equal(a.arrivals, b.arrivals)
            assert (a.batch_id, a.first_rid, a.hardware, a.co_run) == \
                   (b.batch_id, b.first_rid, b.hardware, b.co_run)
        # Derived views agree too.
        assert [v.latency for v in loaded.iter_requests()] == \
               [v.latency for v in data.iter_requests()]
        assert loaded.request(1).violated is True  # 0.75 s > 0.5 s SLO

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(
            {"type": "reqtrace_meta", "schema": "repro.reqtrace/999"}
        ) + "\n")
        with pytest.raises(ValueError, match="repro.reqtrace/999"):
            read_reqtrace(str(path))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="missing reqtrace_meta"):
            read_reqtrace(str(path))

    def test_bad_json_cites_line(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            json.dumps({"type": "reqtrace_meta",
                        "schema": REQTRACE_SCHEMA}) + "\n{not json\n"
        )
        with pytest.raises(ValueError, match=r":2: not JSON"):
            read_reqtrace(str(path))

    def _edited(self, tmp_path, edit):
        """A saved one-batch trace whose batch line (line 2) went through
        ``edit``."""
        path = tmp_path / "edited.jsonl"
        self._sample_tracer().data().save_jsonl(str(path))
        meta, batch, *events = path.read_text().splitlines()
        batch = json.loads(batch)
        edit(batch)
        path.write_text("\n".join([meta, json.dumps(batch), *events]) + "\n")
        return str(path)

    @pytest.mark.parametrize("edit,detail", [
        (lambda b: b.pop("phases"), "missing fields ['phases']"),
        (lambda b: b["phases"].pop("exec_solo"), "missing phase 'exec_solo'"),
        (lambda b: b["arrivals"].__setitem__(0, "soon"),
         "could not convert string to float: 'soon'"),
        (lambda b: b.update(arrivals=[]), "arrivals must be a non-empty"),
        (lambda b: b.update(node_id=None), "int() argument"),
        (lambda b: b.update(extra=1), "unknown fields ['extra']"),
    ], ids=["no-phases", "no-phase", "arrival", "no-arrivals", "node",
            "extra"])
    def test_malformed_batch_line_cites_its_line(self, tmp_path, edit,
                                                 detail):
        path = self._edited(tmp_path, edit)
        with pytest.raises(ValueError) as exc:
            read_reqtrace(path)
        assert str(exc.value).startswith(
            f"{path}:2: malformed reqtrace_batch: {detail}"
        )

    @pytest.mark.parametrize("line,message", [
        ([1, 2], ":2: not a JSON object"),
        ({"type": "reqtrace_event", "kind": "drop"},
         ":2: malformed reqtrace_event"),
        ({"type": "reqtrace_event", "t": "late", "kind": "drop"},
         ":2: malformed reqtrace_event"),
    ])
    def test_malformed_line_cites_its_line(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "reqtrace_meta", "schema": REQTRACE_SCHEMA})
            + "\n" + json.dumps(line) + "\n"
        )
        with pytest.raises(ValueError, match=message):
            read_reqtrace(str(path))

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "weird.jsonl"
        path.write_text(
            json.dumps({"type": "reqtrace_meta",
                        "schema": REQTRACE_SCHEMA}) + "\n"
            + json.dumps({"type": "mystery"}) + "\n"
        )
        with pytest.raises(ValueError, match="mystery"):
            read_reqtrace(str(path))


class TestSamplingRetention:
    def test_sampled_subset_is_deterministic(self):
        batches = [
            make_batch([float(i)], i + 1.0, batch_id=i) for i in range(100)
        ]
        kept_a = {r.batch_id
                  for r in make_tracer(batches, sample=0.3, tail_k=0,
                                       seed=5).data().records}
        kept_b = {r.batch_id
                  for r in make_tracer(batches, sample=0.3, tail_k=0,
                                       seed=5).data().records}
        assert kept_a == kept_b
        assert kept_a == {bid for bid in range(100)
                          if sampled_batch(5, bid, 0.3)}

    def test_worst_k_exact_under_sampling(self):
        # The tail reservoir guarantees exact worst-K for K <= tail_k
        # at any sampling rate.
        rng = np.random.default_rng(11)
        batches = [
            make_batch([float(i)], float(i) + float(rng.uniform(0.1, 4.0)),
                       batch_id=i)
            for i in range(200)
        ]
        full = make_tracer(batches, sample=1.0).data()
        sampled = make_tracer(batches, sample=0.1, tail_k=16,
                              seed=2).data()
        assert [v.rid for v in sampled.worst(16)] == \
               [v.rid for v in full.worst(16)]
