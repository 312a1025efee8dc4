"""Tests for Algorithm 1 (hardware selection)."""

import pytest

from repro.core.hardware_selection import HardwareSelector, choose_best_row
from repro.core.predictor import EWMAPredictor


def make_selector(profiles, model, predictor=None, **kw):
    return HardwareSelector(
        model=model,
        profiles=profiles,
        predictor=predictor or EWMAPredictor(),
        slo_seconds=0.2,
        **kw,
    )


def prime(selector, rate):
    for _ in range(6):
        selector.predictor.observe(rate, 0.0)


def choose(selector, rows):
    """``choose_best_row`` with the selector's budget and slack."""
    return choose_best_row(
        rows,
        selector.slo_seconds * selector.latency_budget_fraction,
        selector.perf_slack_seconds,
    )


class TestEvaluate:
    def test_cpu_uses_lane_model(self, profiles, resnet50, cpu_node):
        sel = make_selector(profiles, resnet50)
        ev = sel.evaluate(cpu_node, n_future=4)
        assert ev.best_y is None
        assert ev.least_t_max > 0

    def test_gpu_solves_equation_one(self, profiles, resnet50, m60):
        sel = make_selector(profiles, resnet50)
        ev = sel.evaluate(m60, n_future=20)
        assert ev.best_y is not None
        assert ev.least_t_max > 0

    def test_incapable_node_infinite(self, profiles, bert, catalog):
        sel = make_selector(profiles, bert)
        ev = sel.evaluate(catalog.get("m4.xlarge"), n_future=4)
        assert ev.least_t_max == float("inf")


class TestChooseBest:
    def test_cheapest_wins_when_all_comfortable(self, profiles, resnet50, cpu_node):
        sel = make_selector(profiles, resnet50)
        evs = [sel.evaluate(hw, 3) for hw in profiles.catalog.by_cost()]
        chosen = choose(sel, [e for e in evs if e.least_t_max != float("inf")])
        assert chosen.cost_per_hour <= profiles.catalog.get("g3s.xlarge").price_per_hour

    def test_degrades_to_fastest_when_nothing_fits(self, profiles, resnet50):
        sel = make_selector(profiles, resnet50)
        evs = [sel.evaluate(hw, 100000) for hw in profiles.catalog.gpus()]
        chosen = choose(sel, evs)
        assert chosen.hw_name == "p3.2xlarge"

    def test_empty_candidates_rejected(self, profiles, resnet50):
        with pytest.raises(ValueError):
            choose(make_selector(profiles, resnet50), [])


class TestTick:
    def test_low_rate_selects_cpu(self, profiles, resnet50):
        sel = make_selector(profiles, resnet50)
        prime(sel, 8.0)
        out = sel.tick(0.0, current_hw=None)
        assert not out.chosen.is_gpu

    def test_peak_rate_selects_gpu(self, profiles, resnet50):
        sel = make_selector(profiles, resnet50)
        prime(sel, resnet50.peak_rps)
        out = sel.tick(0.0, current_hw=None)
        assert out.chosen.is_gpu

    def test_first_tick_with_no_current_switches(self, profiles, resnet50):
        sel = make_selector(profiles, resnet50)
        prime(sel, 8.0)
        assert sel.tick(0.0, None).switch_requested

    def test_hysteresis_requires_consecutive_mismatches(self, profiles, resnet50, v100):
        sel = make_selector(profiles, resnet50, wait_limit=3, wait_limit_down=3)
        prime(sel, 5.0)
        # currently on V100 but cheap hardware suffices -> de-escalation
        out1 = sel.tick(0.0, v100)
        out2 = sel.tick(1.0, v100)
        out3 = sel.tick(2.0, v100)
        assert not out1.switch_requested
        assert not out2.switch_requested
        assert out3.switch_requested

    def test_matching_choice_resets_counter(self, profiles, resnet50, cpu_node, v100):
        sel = make_selector(profiles, resnet50, wait_limit=3, wait_limit_down=3)
        prime(sel, 5.0)
        sel.tick(0.0, v100)
        sel.tick(1.0, cpu_node)  # matches -> reset
        out = sel.tick(2.0, v100)
        assert not out.switch_requested

    def test_emergency_escalation_bypasses_hysteresis(self, profiles, resnet50, cpu_node):
        sel = make_selector(profiles, resnet50, wait_limit=5)
        prime(sel, resnet50.peak_rps)  # CPU hopeless at 225 rps
        out = sel.tick(0.0, cpu_node)
        assert out.switch_requested
        assert out.chosen.is_gpu

    def test_deescalation_damped_harder_than_escalation(self, profiles, resnet50, v100):
        sel = make_selector(profiles, resnet50, wait_limit=2, wait_limit_down=6)
        prime(sel, 5.0)
        for i in range(5):
            assert not sel.tick(float(i), v100).switch_requested
        assert sel.tick(6.0, v100).switch_requested

    def test_backlog_escalates_selection(self, profiles, resnet50, m60):
        sel = make_selector(profiles, resnet50)
        prime(sel, 100.0)
        calm = sel.evaluate(m60, n_future=10)
        out = sel.tick(0.0, m60, backlog=2000)
        # with a huge backlog the chosen node outranks the loaded M60
        assert out.chosen.perf_rank <= m60.perf_rank

    def test_unavailable_hardware_excluded(self, profiles, resnet50, v100):
        sel = make_selector(profiles, resnet50)
        prime(sel, 8.0)
        out = sel.tick(
            0.0, None, is_available=lambda hw: hw.name != "c6i.4xlarge"
        )
        assert out.chosen.name != "c6i.4xlarge"
