"""Tests for Equation (1) and the y-solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import SplitDecision, cpu_t_max, optimal_split, t_max_curve
from repro.simulator.interference import InterferenceModel

LINEAR = InterferenceModel(alpha=1.0, sub_knee_slope=0.0)
SUPER = InterferenceModel(alpha=1.3, sub_knee_slope=0.0)


class TestTMaxCurve:
    def test_paper_formula_past_knee(self):
        # Linear interference past the knee reproduces Eq (1) verbatim:
        # Solo*y/BS + Solo*((N-y)/BS)*FBR.
        n, bs, solo, fbr = 64, 16, 0.1, 0.5
        y = np.array([0, 16, 32])
        t = t_max_curve(y, n, bs, solo, fbr, LINEAR)
        for yi, ti in zip(y, t):
            k = np.ceil((n - yi) / bs)
            expected = solo * (yi / bs) + solo * max(1.0, k * fbr)
            assert ti == pytest.approx(expected)

    def test_full_temporal_has_no_spatial_term(self):
        t = t_max_curve(np.array([32]), 32, 16, 0.1, 0.5, LINEAR)
        assert t[0] == pytest.approx(0.1 * 2)

    def test_existing_fbr_inflates_spatial(self):
        base = t_max_curve(np.array([0]), 16, 16, 0.1, 0.5, SUPER)[0]
        loaded = t_max_curve(np.array([0]), 16, 16, 0.1, 0.5, SUPER,
                             existing_fbr=1.0)[0]
        assert loaded > base

    def test_existing_queue_charges_queued_requests(self):
        free = t_max_curve(np.array([16]), 16, 16, 0.1, 0.5, SUPER)[0]
        backlogged = t_max_curve(np.array([16]), 16, 16, 0.1, 0.5, SUPER,
                                 existing_queue=32)[0]
        assert backlogged == pytest.approx(free + 0.1 * 2)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            t_max_curve(np.array([0]), 8, 0, 0.1, 0.5)
        with pytest.raises(ValueError):
            t_max_curve(np.array([0]), 8, 16, -0.1, 0.5)
        with pytest.raises(ValueError):
            t_max_curve(np.array([0]), 8, 16, 0.1, 0.5, existing_queue=-1)


class TestOptimalSplit:
    def test_empty_burst(self):
        d = optimal_split(0, 16, 0.1, 0.5, 0.2)
        assert d.y == 0 and d.feasible

    def test_small_burst_prefers_spatial(self):
        d = optimal_split(16, 16, 0.1, 0.3, 0.2, interference=SUPER)
        assert d.y == 0
        assert d.feasible

    def test_large_burst_queues_some(self):
        # With super-linear interference, dumping 10 batches spatially is
        # worse than a hybrid split.
        d = optimal_split(160, 16, 0.1, 0.6, 10.0, interference=SUPER)
        assert 0 < d.y

    def test_linear_low_fbr_never_queues(self):
        # Paper's linear model with fbr < 1: T_max is increasing in y.
        d = optimal_split(160, 16, 0.1, 0.3, 10.0, interference=LINEAR)
        assert d.y == 0

    def test_tmax_is_minimum_of_curve(self):
        n, bs, solo, fbr = 96, 16, 0.1, 0.7
        d = optimal_split(n, bs, solo, fbr, 10.0, interference=SUPER)
        y = np.arange(0, n + 1)
        t = t_max_curve(y, n, bs, solo, fbr, SUPER)
        assert d.t_max == pytest.approx(t.min())

    def test_infeasible_flagged(self):
        d = optimal_split(320, 16, 0.15, 0.9, 0.2, interference=SUPER)
        assert not d.feasible

    def test_memory_cap_limits_spatial(self):
        d = optimal_split(160, 16, 0.01, 0.2, 1.0, interference=SUPER,
                          max_coresident=3)
        assert d.n_spatial_batches <= 3

    def test_occupancy_cap_limits_total_fbr(self):
        d = optimal_split(160, 16, 0.01, 0.4, 10.0, interference=SUPER,
                          max_total_fbr=1.2)
        assert d.n_spatial_batches * 0.4 <= 1.2 + 1e-9

    def test_occupancy_cap_with_existing(self):
        d = optimal_split(64, 16, 0.01, 0.4, 10.0, interference=SUPER,
                          existing_fbr=1.2, max_total_fbr=1.2)
        assert d.n_spatial == 0  # nothing fits: fully temporal

    def test_split_decision_accessors(self):
        d = SplitDecision(y=20, t_max=0.1, feasible=True, n=52, batch_size=16)
        assert d.n_spatial == 32
        assert d.n_spatial_batches == 2

    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=0.01, max_value=0.3),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_is_valid(self, n, bs, solo, fbr):
        d = optimal_split(n, bs, solo, fbr, 0.2, interference=SUPER)
        assert 0 <= d.y <= n
        assert d.t_max >= 0.0

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_tmax_no_worse_than_pure_modes(self, n):
        bs, solo, fbr = 16, 0.1, 0.6
        d = optimal_split(n, bs, solo, fbr, 10.0, interference=SUPER)
        pure = t_max_curve(np.array([0, n]), n, bs, solo, fbr, SUPER)
        assert d.t_max <= pure.min() + 1e-12


class TestCpuTMax:
    def test_zero_requests(self):
        assert cpu_t_max(0, 1, 0.1, 4) == 0.0

    def test_burst_formula(self):
        # 8 single-request batches over 4 lanes, no horizon:
        # solo + total_work/lanes (a conservative bound on the 2-stage
        # schedule).
        assert cpu_t_max(8, 1, 0.1, 4) == pytest.approx(0.1 + 0.2)

    def test_horizon_relief(self):
        burst = cpu_t_max(8, 1, 0.1, 4)
        spread = cpu_t_max(8, 1, 0.1, 4, horizon=0.2)
        assert spread == pytest.approx(0.1)
        assert spread < burst

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            cpu_t_max(8, 0, 0.1, 4)
        with pytest.raises(ValueError):
            cpu_t_max(8, 1, 0.1, 4, horizon=-1.0)

    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_at_least_one_service_time(self, n, bs, lanes, horizon):
        assert cpu_t_max(n, bs, 0.1, lanes, horizon) >= 0.1 - 1e-12
