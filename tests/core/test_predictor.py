"""Tests for rate prediction."""

import pytest

from repro.core.predictor import EWMAPredictor, OraclePredictor, RateTracker
from repro.workloads.traces import constant_trace


class TestEWMA:
    def test_first_observation_sets_level(self):
        p = EWMAPredictor()
        p.observe(10.0, 0.0)
        assert p.predict(0.0, 0.0) == pytest.approx(10.0)

    def test_no_observations_predicts_zero(self):
        assert EWMAPredictor().predict(0.0, 4.0) == 0.0

    def test_smooths_jitter(self):
        p = EWMAPredictor(alpha=0.3)
        for r in [10, 12, 9, 11, 10, 12, 9]:
            p.observe(float(r), 0.0)
        assert 8.0 <= p.predict(0.0, 0.0) <= 13.0

    def test_surge_jump_needs_two_consecutive_highs(self):
        p = EWMAPredictor(alpha=0.3, surge_threshold=1.5)
        for _ in range(10):
            p.observe(10.0, 0.0)
        p.observe(40.0, 0.0)  # first high sample: damped
        after_one = p.predict(0.0, 0.0)
        p.observe(45.0, 0.0)  # second: trusted
        after_two = p.predict(0.0, 0.0)
        assert after_two >= 45.0
        assert after_one < after_two

    def test_trend_extrapolates_ramps(self):
        p = EWMAPredictor(alpha=0.5, beta=0.5, surge_threshold=10.0)
        for i in range(20):
            p.observe(10.0 + 2.0 * i, float(i))
        now_level = p.predict(20.0, 0.0)
        ahead = p.predict(20.0, 4.0)
        assert ahead > now_level

    def test_downward_trend_not_extrapolated(self):
        p = EWMAPredictor(alpha=0.5, beta=0.5)
        for i in range(20):
            p.observe(100.0 - 4.0 * i, float(i))
        assert p.predict(20.0, 4.0) >= p.predict(20.0, 0.0) - 1e-9

    def test_never_negative(self):
        p = EWMAPredictor(alpha=0.9, beta=0.9)
        for r in [100.0, 0.0, 0.0, 0.0, 0.0]:
            p.observe(r, 0.0)
        assert p.predict(0.0, 4.0) >= 0.0

    def test_never_negative_through_surge_branch(self):
        # A crash after a surge drives the trend negative; a late surge
        # sample must not push the level below zero (regression test).
        p = EWMAPredictor(alpha=0.35, beta=0.5, surge_threshold=1.5)
        rates = [5, 5, 200, 250, 5, 1, 0.5, 0.2, 0.1, 2, 0, 0, 0, 1]
        for r in rates:
            p.observe(float(r), 0.0)
            assert p.predict(0.0, 4.0) >= 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EWMAPredictor(alpha=0.0)
        with pytest.raises(ValueError):
            EWMAPredictor(beta=1.5)
        with pytest.raises(ValueError):
            EWMAPredictor(surge_threshold=0.5)


class TestOracle:
    def test_reads_true_rates(self):
        trace = constant_trace(50.0, 100.0)
        p = OraclePredictor(trace)
        assert p.predict(10.0, 4.0) == pytest.approx(50.0 * 1.1)

    def test_past_horizon_zero(self):
        trace = constant_trace(50.0, 100.0)
        assert OraclePredictor(trace).predict(200.0, 4.0) == 0.0

    def test_observe_is_noop(self):
        trace = constant_trace(50.0, 100.0)
        p = OraclePredictor(trace)
        p.observe(9999.0, 0.0)
        assert p.predict(0.0, 4.0) == pytest.approx(55.0)


class TestRateTracker:
    def test_sample_computes_rate(self):
        t = RateTracker(window_seconds=0.5)
        t.count(10)
        assert t.sample(0.5) == pytest.approx(20.0)
        assert t.current_rate == pytest.approx(20.0)

    def test_sample_resets_counter(self):
        t = RateTracker(window_seconds=1.0)
        t.count(5)
        t.sample(1.0)
        assert t.sample(2.0) == 0.0

    def test_current_rate_is_the_last_closed_interval(self):
        t = RateTracker(window_seconds=1.0)
        assert t.current_rate == 0.0
        for n in [5, 20, 3]:
            t.count(n)
            t.sample(0.0)
        assert t.current_rate == 3.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RateTracker(window_seconds=0.0)
