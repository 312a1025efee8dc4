"""Tests for the live SLO burn-rate monitor."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.framework.request import Batch
from repro.simulator.metrics import MetricsCollector
from repro.telemetry import SLOMonitor, Tracer

SLO_S = 0.200


def make_monitor(tracer=None, **kw):
    """A monitor reading the log of ``m.collector``."""
    kw.setdefault("window_seconds", 30.0)
    kw.setdefault("compliance_goal", 0.99)
    m = SLOMonitor(SLO_S, tracer=tracer, **kw)
    m.collector = MetricsCollector()
    m.attach(m.collector.log)
    return m


def observe(m, now, model, hardware, lat):
    """Log a batch completing at ``now`` whose requests took ``lat``."""
    batch = Batch(model=SimpleNamespace(name=model),
                  arrivals=np.sort(now - lat), dispatched_at=now)
    batch.hardware_name = hardware
    batch.complete(now)
    m.collector.record_batch(batch)


def latencies(n_ok, n_bad):
    return np.concatenate([
        np.full(n_ok, 0.05), np.full(n_bad, 0.5)
    ]) if n_ok or n_bad else np.array([])


class TestWindowStats:
    def test_burn_rate_is_violation_rate_over_error_budget(self):
        m = make_monitor()
        # 5 violations in 100 requests = 5% violation rate against a 1%
        # error budget -> burn rate 5.
        observe(m, 0.0, "resnet50", "g3s.xlarge", latencies(95, 5))
        stats = {(s.scope, s.key): s for s in m.window_stats(1.0)}
        s = stats[("model", "resnet50")]
        assert s.n_requests == 100
        assert s.n_violations == 5
        assert s.attainment == pytest.approx(0.95)
        assert s.burn_rate == pytest.approx(5.0)

    def test_both_scopes_tracked(self):
        m = make_monitor()
        observe(m, 0.0, "resnet50", "g3s.xlarge", latencies(10, 0))
        keys = {(s.scope, s.key) for s in m.window_stats(1.0)}
        assert keys == {("model", "resnet50"), ("hardware", "g3s.xlarge")}

    def test_old_entries_evicted(self):
        m = make_monitor(window_seconds=30.0)
        observe(m, 0.0, "resnet50", "g3s.xlarge", latencies(50, 50))
        s = m.window_stats(100.0)[0]
        assert s.n_requests == 0
        assert s.attainment == 1.0
        assert s.burn_rate == 0.0

    def test_one_read_splits_violations_per_batch(self):
        # Four batches ingested by one evaluation; each keeps its own
        # violation count, so evicting the oldest removes exactly its own.
        m = make_monitor(window_seconds=30.0)
        observe(m, 0.0, "a", "x", latencies(10, 3))
        observe(m, 10.0, "b", "x", latencies(5, 0))
        observe(m, 15.0, "b", "y", latencies(0, 1))
        observe(m, 20.0, "a", "y", latencies(1, 4))

        def totals(now):
            return {(s.scope, s.key): (s.n_requests, s.n_violations)
                    for s in m.window_stats(now, include_p99=False)}

        assert totals(25.0) == {
            ("model", "a"): (18, 7), ("model", "b"): (6, 1),
            ("hardware", "x"): (18, 3), ("hardware", "y"): (6, 5),
        }
        assert totals(35.0) == {
            ("model", "a"): (5, 4), ("model", "b"): (6, 1),
            ("hardware", "x"): (5, 0), ("hardware", "y"): (6, 5),
        }

    def test_p99_reflects_window(self):
        m = make_monitor()
        observe(m, 0.0, "resnet50", "g3s.xlarge", latencies(99, 1))
        s = {(x.scope, x.key): x for x in m.window_stats(1.0)}[
            ("model", "resnet50")
        ]
        assert s.p99_seconds > 0.05

    def test_empty_observation_ignored(self):
        m = make_monitor()
        m.observe_batch()  # nothing logged yet: no window opens
        assert m.window_stats(1.0) == []


def firing_windows(m, now):
    """The (scope, key) windows whose alert is firing at ``now``, sorted."""
    return [(s.scope, s.key) for s in m.window_stats(now, include_p99=False)
            if s.firing]


class TestAlerts:
    def test_firing_is_edge_triggered(self):
        tracer = Tracer()
        m = make_monitor(tracer=tracer)
        observe(m, 0.0, "resnet50", "g3s.xlarge", latencies(90, 10))
        m.sample(1.0)
        firing = [e for e in tracer.events_named("slo_alert")
                  if e.attrs["state"] == "firing"]
        assert len(firing) == 2  # model + hardware window
        # A window that stays bad does not re-fire.
        m.sample(2.0)
        m.sample(3.0)
        assert len(tracer.events_named("slo_alert")) == 2
        assert firing_windows(m, 3.0) == [
            ("hardware", "g3s.xlarge"), ("model", "resnet50")
        ]

    def test_resolved_when_burn_drops(self):
        tracer = Tracer()
        m = make_monitor(tracer=tracer, window_seconds=10.0)
        observe(m, 0.0, "resnet50", "g3s.xlarge", latencies(80, 20))
        m.sample(1.0)
        assert firing_windows(m, 1.0)
        # Window slides past the bad burst; healthy traffic replaces it.
        observe(m, 20.0, "resnet50", "g3s.xlarge", latencies(100, 0))
        m.sample(21.0)
        resolved = [e for e in tracer.events_named("slo_alert")
                    if e.attrs["state"] == "resolved"]
        assert len(resolved) == 2
        assert firing_windows(m, 21.0) == []
        assert m.alerts_emitted == 4

    def test_alert_event_schema(self):
        tracer = Tracer()
        m = make_monitor(tracer=tracer)
        observe(m, 0.0, "resnet50", "g3s.xlarge", latencies(50, 50))
        m.sample(1.0)
        e = tracer.events_named("slo_alert")[0]
        assert e.cat == "alert"
        assert e.track == "slo-monitor"
        for key in ("state", "scope", "key", "attainment", "p99_seconds",
                    "burn_rate", "burn_rate_threshold", "window_seconds",
                    "n_requests", "n_violations", "slo_seconds"):
            assert key in e.attrs, key

    def test_sparse_windows_never_fire(self):
        m = make_monitor()
        # One violating request in a window of fewer than
        # MIN_WINDOW_REQUESTS (20) is noise.
        observe(m, 0.0, "resnet50", "g3s.xlarge", latencies(0, 1))
        m.sample(1.0)
        assert firing_windows(m, 1.0) == []
        assert m.alerts_emitted == 0

    def test_alerts_carry_post_transition_state(self):
        # A tick stores only its time; the alerts it raised, decided when
        # the log is read, carry the state the window flipped to.
        tracer = Tracer()
        m = make_monitor(tracer=tracer)
        observe(m, 0.0, "resnet50", "g3s.xlarge", latencies(50, 50))
        assert m.sample(1.0) is None
        alerts = tracer.events_named("slo_alert")
        assert len(alerts) == 2
        assert all(e.attrs["state"] == "firing" for e in alerts)

    def test_no_tracer_still_tracks_state(self):
        m = make_monitor(tracer=None)
        observe(m, 0.0, "resnet50", "g3s.xlarge", latencies(50, 50))
        m.sample(1.0)
        assert firing_windows(m, 1.0)
        assert m.alerts_emitted == 2


class TestValidation:
    def test_bad_slo_rejected(self):
        with pytest.raises(ValueError):
            SLOMonitor(0.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            SLOMonitor(SLO_S, window_seconds=0.0)

    def test_bad_goal_rejected(self):
        with pytest.raises(ValueError):
            SLOMonitor(SLO_S, compliance_goal=1.0)
