"""Tests for the trace generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.traces import (
    AZURE_PEAK_TO_MEAN,
    Trace,
    azure_trace,
    constant_trace,
    poisson_trace,
    twitter_trace,
    wiki_trace,
)


class TestTraceType:
    def test_sorted_arrivals_required(self):
        with pytest.raises(ValueError):
            Trace("x", np.array([1.0, 0.5]), 10.0, np.ones(10), 1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            Trace("x", np.array([]), 0.0, np.ones(1), 1.0)

    def test_rate_window(self):
        t = constant_trace(10.0, 5.0)
        assert t.rate_window(0.0, 5.0) == pytest.approx(10.0)

    def test_empty_rate_window_rejected(self):
        with pytest.raises(ValueError):
            constant_trace(10.0, 5.0).rate_window(1.0, 1.0)

    def test_peak_window_finds_surge(self):
        t = azure_trace(peak_rps=100.0, duration=600.0, seed=0)
        t0, t1 = t.peak_window(30.0)
        assert t.rate_window(t0, t1) >= 0.8 * t.bin_rates.max() * 0.3


class TestAzure:
    def test_peak_matches_request(self):
        t = azure_trace(peak_rps=225.0, duration=1500.0, seed=1)
        assert t.peak_rps == pytest.approx(225.0)

    def test_peak_to_mean_signature(self):
        t = azure_trace(peak_rps=225.0, duration=1500.0, seed=1)
        ratio = t.peak_rps / t.mean_rps
        assert ratio == pytest.approx(AZURE_PEAK_TO_MEAN, rel=0.25)

    def test_seeded_reproducibility(self):
        a = azure_trace(100.0, duration=300.0, seed=5)
        b = azure_trace(100.0, duration=300.0, seed=5)
        assert np.array_equal(a.arrivals, b.arrivals)

    def test_seeds_differ(self):
        a = azure_trace(100.0, duration=300.0, seed=5)
        b = azure_trace(100.0, duration=300.0, seed=6)
        assert not np.array_equal(a.arrivals, b.arrivals)

    def test_nonpositive_peak_rejected(self):
        with pytest.raises(ValueError):
            azure_trace(0.0)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_arrivals_within_horizon(self, seed):
        t = azure_trace(50.0, duration=120.0, seed=seed)
        if t.n_requests:
            assert t.arrivals[0] >= 0.0
            assert t.arrivals[-1] <= t.duration + 1.0


class TestWiki:
    def test_diurnal_high_and_low_phases(self):
        t = wiki_trace(peak_rps=170.0, duration=1200.0, day_seconds=600.0, seed=2)
        rates = t.bin_rates
        assert rates.max() / max(rates.min(), 1e-9) > 2.0

    def test_sustained_high_duty_cycle(self):
        t = wiki_trace(peak_rps=100.0, duration=2400.0, day_seconds=600.0, seed=2)
        high = np.count_nonzero(t.bin_rates > 0.6 * t.peak_rps)
        assert 0.3 <= high / t.bin_rates.size <= 0.8


class TestTwitter:
    def test_mean_matches_request(self):
        t = twitter_trace(mean_rps=90.0, duration=1800.0, seed=3)
        assert t.mean_rps == pytest.approx(90.0, rel=0.15)

    def test_erratic_variance(self):
        t = twitter_trace(mean_rps=90.0, duration=1800.0, seed=3)
        assert t.bin_rates.std() / t.bin_rates.mean() > 0.3

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError):
            twitter_trace(0.0)


class TestPoissonAndConstant:
    def test_poisson_rate(self):
        t = poisson_trace(700.0, duration=60.0, seed=4)
        assert t.mean_rps == pytest.approx(700.0, rel=0.05)

    def test_poisson_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            poisson_trace(-5.0)

    def test_constant_deterministic_spacing(self):
        t = constant_trace(10.0, 2.0)
        assert t.n_requests == 20
        gaps = np.diff(t.arrivals)
        assert np.allclose(gaps, 0.1)

    def test_constant_invalid_rejected(self):
        with pytest.raises(ValueError):
            constant_trace(0.0, 5.0)
