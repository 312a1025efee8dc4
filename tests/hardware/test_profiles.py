"""Tests for the profiling service."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.hardware.profiles import FBR_CAP, ProfileService
from repro.workloads.models import ALL_MODELS, get_model


class TestSoloTime:
    def test_scales_inversely_with_speed(self, profiles, resnet50, v100, m60):
        t_v100 = profiles.solo_time(resnet50, v100, 16)
        t_m60 = profiles.solo_time(resnet50, m60, 16)
        assert t_m60 / t_v100 == pytest.approx(v100.speed_factor / m60.speed_factor)

    def test_linear_in_batch(self, profiles, resnet50, v100):
        t1 = profiles.solo_time(resnet50, v100, 1)
        t64 = profiles.solo_time(resnet50, v100, 64)
        marginal = (t64 - t1) / 63
        assert marginal == pytest.approx(resnet50.per_item_s_v100, rel=1e-9)

    def test_batch_below_one_rejected(self, profiles, resnet50, v100):
        with pytest.raises(ValueError):
            profiles.solo_time(resnet50, v100, 0)


class TestFBR:
    def test_m60_pressure_exceeds_v100(self, profiles, resnet50, v100, m60):
        assert profiles.fbr(resnet50, m60) > profiles.fbr(resnet50, v100)

    def test_fbr_capped_below_one(self, profiles, m60):
        for model in ALL_MODELS:
            assert profiles.fbr(model, m60) <= FBR_CAP < 1.0

    def test_cpu_fbr_rejected(self, profiles, resnet50, cpu_node):
        with pytest.raises(ValueError):
            profiles.fbr(resnet50, cpu_node)

    def test_language_models_have_high_fbr(self, profiles, bert, m60):
        assert profiles.fbr(bert, m60) == pytest.approx(FBR_CAP)


class TestBatchSizing:
    def test_batch_latency_within_budget(self, profiles, resnet50, slo):
        for hw in profiles.catalog.gpus():
            b = profiles.best_batch(resnet50, hw, slo.target_seconds)
            assert b >= 1
            assert (
                profiles.solo_time(resnet50, hw, max(b, 1))
                <= slo.target_seconds
            )

    def test_incapable_node_returns_zero(self, profiles, bert, catalog):
        assert profiles.best_batch(bert, catalog.get("m4.xlarge"), 0.2) == 0

    def test_batch_capped_by_model_max(self, profiles, bert, v100):
        assert profiles.best_batch(bert, v100, 10.0) <= bert.max_batch

    def test_tighter_slo_smaller_batch(self, profiles, resnet50, v100):
        loose = profiles.best_batch(resnet50, v100, 0.4)
        tight = profiles.best_batch(resnet50, v100, 0.2)
        assert tight <= loose


class TestCoResidency:
    def test_memory_bounds_residency(self, profiles, resnet50, m60, v100):
        assert profiles.max_coresident(resnet50, v100) > profiles.max_coresident(
            resnet50, m60
        )

    def test_at_least_one(self, profiles, m60):
        for model in ALL_MODELS:
            assert profiles.max_coresident(model, m60) >= 1

    def test_small_batches_pin_weights(self, profiles, bert, m60):
        # batch-1 jobs are not proportionally cheap to co-locate
        full = profiles.max_coresident(bert, m60, batch=bert.max_batch)
        single = profiles.max_coresident(bert, m60, batch=1)
        assert single < bert.max_batch * full


class TestCapacity:
    def test_paper_cpu_operating_point(self, profiles, resnet50, cpu_node, slo):
        # "CPU nodes handle lower request rates (up to ~25 rps)" for
        # high-FBR workloads.
        cap = profiles.capacity_rps(resnet50, cpu_node, slo.target_seconds)
        assert 20.0 <= cap <= 45.0

    def test_m60_stressed_at_class_peak(self, profiles, resnet50, m60, slo):
        cap = profiles.capacity_rps(resnet50, m60, slo.target_seconds)
        assert cap == pytest.approx(resnet50.peak_rps, rel=0.25)

    def test_sweet_spot_at_least_capacity(self, profiles, slo):
        for model in ALL_MODELS:
            for hw in profiles.catalog.gpus():
                assert (
                    profiles.sweet_spot_rps(model, hw, slo.target_seconds)
                    >= profiles.capacity_rps(model, hw, slo.target_seconds) - 1e-9
                )

    def test_incapable_node_zero_capacity(self, profiles, bert, catalog, slo):
        assert profiles.capacity_rps(bert, catalog.get("m4.xlarge"),
                                     slo.target_seconds) == 0.0


class TestHardwarePool:
    def test_low_rate_pool_is_cheapest_first(self, profiles, resnet50, slo):
        pool = profiles.get_hw_pool(resnet50, 5.0, slo.target_seconds)
        prices = [hw.price_per_hour for hw in pool]
        assert prices == sorted(prices)

    def test_low_rate_pool_contains_cpu(self, profiles, resnet50, slo):
        pool = profiles.get_hw_pool(resnet50, 10.0, slo.target_seconds)
        assert any(not hw.is_gpu for hw in pool)

    def test_peak_rate_prunes_cpus(self, profiles, resnet50, slo):
        pool = profiles.get_hw_pool(resnet50, resnet50.peak_rps, slo.target_seconds)
        assert all(hw.is_gpu for hw in pool)

    def test_impossible_rate_degrades_to_fastest(self, profiles, resnet50, slo):
        pool = profiles.get_hw_pool(resnet50, 1e6, slo.target_seconds)
        assert len(pool) == 1

    def test_negative_rate_rejected(self, profiles, resnet50, slo):
        with pytest.raises(ValueError):
            profiles.get_hw_pool(resnet50, -1.0, slo.target_seconds)

    @given(st.floats(min_value=0.0, max_value=2000.0))
    def test_pool_never_empty(self, rate):
        profiles = ProfileService()
        pool = profiles.get_hw_pool(get_model("resnet50"), rate, 0.2)
        assert pool

    def test_capable_consistent_with_pool(self, profiles, resnet50, slo):
        pool = profiles.get_hw_pool(resnet50, 100.0, slo.target_seconds, headroom=1.0,
                                    cpu_headroom=1.0)
        for hw in pool:
            assert profiles.capable(resnet50, hw, 100.0, slo.target_seconds)

    def test_profile_row_fields(self, profiles, resnet50, m60, slo):
        row = profiles.profile_row(resnet50, m60, slo.target_seconds)
        assert row["model"] == "resnet50"
        assert "fbr" in row and "max_coresident" in row
