"""Property-based tests on Algorithm 1's selection behaviour."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hardware_selection import (
    CandidateRow, CandidateTable, HardwareSelector, choose_best_row,
)
from repro.core.predictor import EWMAPredictor
from repro.hardware.profiles import ProfileService
from repro.workloads.models import get_model

PROFILES = ProfileService()
RESNET = get_model("resnet50")
SPECS = tuple(PROFILES.catalog)
PRICES = sorted({hw.price_per_hour for hw in SPECS})


def selector():
    return HardwareSelector(RESNET, PROFILES, EWMAPredictor(), 0.2)


def prime(sel, rate):
    for _ in range(8):
        sel.predictor.observe(rate, 0.0)


class TestSelectionProperties:
    @given(st.floats(min_value=0.5, max_value=2000.0))
    @settings(max_examples=40, deadline=None)
    def test_always_chooses_something(self, rate):
        sel = selector()
        prime(sel, rate)
        out = sel.tick(0.0, current_hw=None)
        assert out.chosen.name in PROFILES.catalog.names()

    @given(st.floats(min_value=0.5, max_value=2000.0))
    @settings(max_examples=40, deadline=None)
    def test_evaluations_cover_chosen(self, rate):
        sel = selector()
        prime(sel, rate)
        out = sel.tick(0.0, current_hw=None)
        assert any(hw.name == out.chosen.name for hw in out.table.specs)

    @given(st.floats(min_value=0.5, max_value=1200.0))
    @settings(max_examples=40, deadline=None)
    def test_chosen_node_is_capable_when_any_is(self, rate):
        # Whenever some node's sweet-spot goodput covers the rate, the
        # chosen node's must too.  (Perf rank need not be monotone in the
        # rate: the K80's MPS sweet spot covers loads the faster-per-batch
        # M60 cannot, at lower perf rank but higher price — choosing it is
        # the paper's cost logic, not an error.)
        sel = selector()
        prime(sel, rate)
        out = sel.tick(0.0, None)
        capable_exists = any(
            PROFILES.sweet_spot_rps(RESNET, hw, 0.2) >= rate
            for hw in PROFILES.catalog
        )
        if capable_exists:
            assert (
                PROFILES.sweet_spot_rps(RESNET, out.chosen, 0.2)
                >= min(rate, out.predicted_rps)
            )

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=30, deadline=None)
    def test_backlog_never_downgrades_capacity(self, backlog):
        sel_free = selector()
        sel_load = selector()
        prime(sel_free, 50.0)
        prime(sel_load, 50.0)
        free = sel_free.tick(0.0, None, backlog=0).chosen
        loaded = sel_load.tick(0.0, None, backlog=backlog).chosen
        # A backlog can only push selection towards *more* sustainable
        # goodput, never less.
        assert (
            PROFILES.sweet_spot_rps(RESNET, loaded, 0.2)
            >= PROFILES.sweet_spot_rps(RESNET, free, 0.2) - 1e-9
        )


@st.composite
def candidate_scans(draw):
    """One tick's ``HW_dict`` on distinct catalog specs, with latencies on
    the rule's edges (the budget, its 0.8 floor, a shared best plus the
    slack) as well as anywhere, and prices that tie."""
    budget = draw(st.floats(min_value=0.01, max_value=0.5))
    slack = draw(st.sampled_from([0.0, 0.025, 0.050, 0.100]))
    base = draw(st.floats(min_value=0.0, max_value=0.5))
    edges = [
        budget, math.nextafter(budget, 0.0), math.nextafter(budget, math.inf),
        0.8 * budget, math.nextafter(0.8 * budget, math.inf),
        base, base + slack, math.nextafter(base + slack, math.inf),
    ]
    latency = st.one_of(
        st.sampled_from(edges),
        st.just(math.inf),
        st.floats(min_value=0.0, max_value=0.5),
    )
    n = draw(st.integers(min_value=1, max_value=6))
    specs = draw(st.permutations(SPECS))[:n]
    rows = [
        CandidateRow(
            hw.name,
            draw(latency),
            draw(st.one_of(st.none(), st.integers(0, 64))),
            draw(st.sampled_from(PRICES)),
        )
        for hw in specs
    ]
    return specs, rows, budget, slack


@given(candidate_scans())
@settings(max_examples=500, deadline=None)
def test_row_rule_and_columnar_rule_pick_the_same_candidate(scan):
    """``choose_best_row`` (reference scan, replay) and
    ``CandidateTable.choose_best_index`` (vectorised scan) are one rule."""
    specs, rows, budget, slack = scan
    best = choose_best_row(rows, budget, slack)
    table = CandidateTable.from_rows(specs, rows)
    assert table.specs[table.choose_best_index(budget, slack)].name == best.hw_name
