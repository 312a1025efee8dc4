"""Tests for the metrics registry's counters."""

import pytest

from repro.telemetry import Counter, MetricsRegistry


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
