"""Tests for tail-breakdown extraction."""

from types import SimpleNamespace

import pytest

from repro.analysis.breakdown import TailBreakdown, tail_breakdown_of


class TestTailBreakdown:
    def test_total_and_shares(self):
        bd = TailBreakdown("m", "resnet50", min_possible_ms=100.0,
                           queueing_ms=60.0, interference_ms=40.0)
        assert bd.total_ms == pytest.approx(200.0)
        assert bd.queueing_share == pytest.approx(0.3)
        assert bd.interference_share == pytest.approx(0.2)

    def test_zero_total_shares(self):
        bd = TailBreakdown("m", "x", 0.0, 0.0, 0.0)
        assert bd.queueing_share == 0.0
        assert bd.interference_share == 0.0


COMPONENTS = {
    "exec_solo": 0.080,
    "batching_wait": 0.020,
    "queue_delay": 0.030,
    "cold_start_wait": 0.010,
    "interference_extra": 0.015,
}


class TestTailBreakdownOf:
    def test_maps_components_onto_paper_bars(self):
        # min possible <- exec_solo + batching_wait; queueing <-
        # queue_delay + cold_start_wait; interference stands alone.
        result = SimpleNamespace(
            scheme="paldia", model="resnet50", metrics=None,
            tail_breakdown=dict(COMPONENTS),
        )
        bd = tail_breakdown_of(result)
        assert bd.scheme == "paldia" and bd.model == "resnet50"
        assert bd.min_possible_ms == pytest.approx(100.0)
        assert bd.queueing_ms == pytest.approx(40.0)
        assert bd.interference_ms == pytest.approx(15.0)
        assert bd.total_ms == pytest.approx(
            sum(COMPONENTS.values()) * 1e3
        )

    def test_prefers_live_collector_and_passes_quantile(self):
        calls = []

        def tail_breakdown(q):
            calls.append(q)
            return dict(COMPONENTS)

        result = SimpleNamespace(
            scheme="paldia", model="resnet50",
            metrics=SimpleNamespace(tail_breakdown=tail_breakdown),
            tail_breakdown={c: 0.0 for c in COMPONENTS},  # must be ignored
        )
        bd = tail_breakdown_of(result, q=95.0)
        assert calls == [95.0]
        assert bd.total_ms > 0.0
