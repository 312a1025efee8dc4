"""Tests for the tracer core: spans, events, and the disabled contract."""

import numpy as np
import pytest

from repro.framework.request import Batch, ShareMode
from repro.simulator.metrics import MetricsCollector
from repro.telemetry import NULL_TRACER, Tracer, to_prometheus_text


def record(tracer, *batches):
    """Attach a batch log holding ``batches`` to ``tracer``."""
    collector = MetricsCollector()
    for batch in batches:
        collector.record_batch(batch)
    tracer.attach(collector.log)
    return collector


def make_completed_batch(model, *, started_at=1.2, completed_at=1.35):
    batch = Batch(
        model=model,
        arrivals=np.array([1.0, 1.02, 1.05]),
        dispatched_at=1.075,
        mode=ShareMode.SPATIAL,
    )
    batch.hardware_name = "p3.2xlarge"
    batch.started_at = started_at
    batch.batching_wait = 0.075
    batch.cold_start_wait = 0.05
    batch.queue_delay = 0.075
    batch.exec_solo = 0.12
    batch.interference_extra = 0.03
    batch.complete(completed_at)
    return batch


class TestEnabledTracer:
    def test_span_recorded_with_attrs(self):
        tr = Tracer()
        tr.span("work", 1.0, 2.5, cat="phase", track="gpu", batch_id=7)
        (s,) = tr.spans
        assert s.name == "work" and s.cat == "phase" and s.track == "gpu"
        assert s.start == 1.0 and s.end == 2.5 and s.duration == 1.5
        assert s.attrs == {"batch_id": 7}

    def test_event_recorded_with_attrs(self):
        tr = Tracer()
        tr.event("demo.tick", 3.0, cat="decision", value=42)
        (e,) = tr.events
        assert e.name == "demo.tick" and e.time == 3.0
        assert e.attrs["value"] == 42

    def test_span_end_before_start_rejected(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            tr.span("bad", 2.0, 1.0)

    def test_events_named_filters(self):
        tr = Tracer()
        tr.event("a", 1.0)
        tr.event("b", 2.0)
        tr.event("a", 3.0)
        assert [e.time for e in tr.events_named("a")] == [1.0, 3.0]

    def test_zero_duration_span_allowed(self):
        tr = Tracer()
        tr.span("instant", 1.0, 1.0)
        assert tr.spans[0].duration == 0.0


class TestDisabledTracer:
    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_disabled_records_nothing(self, resnet50):
        tr = Tracer(enabled=False)
        tr.span("work", 0.0, 1.0)
        tr.event("tick", 0.5)
        record(tr, make_completed_batch(resnet50))
        assert tr.spans == [] and tr.events == []
        assert "latency" not in to_prometheus_text(tr)

    def test_disabled_skips_validation(self):
        # The guard returns before any argument inspection.
        tr = Tracer(enabled=False)
        tr.span("bad", 2.0, 1.0)  # would raise when enabled
        assert tr.spans == []


class TestBatchSpans:
    def test_request_span_carries_full_breakdown(self, resnet50):
        tr = Tracer()
        batch = make_completed_batch(resnet50)
        record(tr, batch)
        (req,) = tr.request_spans()
        assert req.start == batch.first_arrival
        assert req.end == batch.completed_at
        assert req.track == "p3.2xlarge"
        a = req.attrs
        assert a["n"] == 3 and a["mode"] == ShareMode.SPATIAL
        assert a["batching_wait"] == 0.075
        assert a["cold_start_wait"] == 0.05
        assert a["queue_delay"] == 0.075
        assert a["exec_solo"] == 0.12
        assert a["interference_extra"] == 0.03

    def test_phase_children_tile_the_request_span(self, resnet50):
        tr = Tracer()
        record(tr, make_completed_batch(resnet50))
        req = tr.request_spans()[0]
        phases = [s for s in tr.spans if s.cat == "phase"]
        assert [p.name for p in phases] == ["batching", "wait", "execute"]
        assert phases[0].start == req.start
        assert phases[-1].end == req.end
        for prev, nxt in zip(phases, phases[1:]):
            assert prev.end == nxt.start
        assert sum(p.duration for p in phases) == pytest.approx(req.duration)

    def test_phases_clamped_into_parent(self, resnet50):
        # started_at after completion (accounting slop) must not produce a
        # negative-duration phase.
        tr = Tracer()
        batch = make_completed_batch(resnet50, started_at=9.0, completed_at=1.4)
        record(tr, batch)
        for s in tr.spans:
            assert s.duration >= 0.0

    def test_incomplete_batch_rejected(self, resnet50):
        # Only completed batches reach the log the tracer reads.
        batch = Batch(
            model=resnet50, arrivals=np.array([0.0]), dispatched_at=0.1
        )
        with pytest.raises(ValueError):
            record(Tracer(), batch)

    def test_each_batch_read_once(self, resnet50):
        tr = Tracer()
        collector = record(tr, make_completed_batch(resnet50))
        assert len(tr.request_spans()) == 1
        collector.record_batch(make_completed_batch(resnet50,
                                                    completed_at=1.5))
        assert len(tr.request_spans()) == 2
