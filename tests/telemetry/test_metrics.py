"""Tests for the metrics registry's counters and histograms."""

import pytest

from repro.telemetry import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestHistogram:
    def test_observe_and_mean(self):
        h = Histogram("lat", bounds=(1.0, 2.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        assert h.n == 3
        assert h.sum == pytest.approx(5.0)
        assert h.sum / h.n == pytest.approx(5.0 / 3)
        # Bounds are inclusive upper edges; 3.0 lands in the overflow.
        assert h.counts == [1, 1, 1]
        h.observe(1.0)
        assert h.counts == [2, 1, 1]

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", bounds=(2.0, 1.0))


class TestRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
