"""Cost-of-compliance replay, waterfall rendering, and export formats."""

import json

import pytest

from repro.analysis.cost_report import (
    ComplianceCost,
    breakdown_json,
    cost_of_compliance,
    render_cost_report,
    write_cost_frontier_svg,
    write_cost_json,
)
from repro.telemetry.costmeter import BUCKETS, CostBreakdown
from repro.telemetry.exporters import TraceData


def tick(t, chosen, candidates, slo_budget=0.17):
    return {
        "name": "hardware_selection.tick",
        "cat": "decision",
        "track": "selector",
        "t": t,
        "attrs": {
            "slo_budget": slo_budget,
            "chosen": chosen,
            "candidates": candidates,
        },
    }


#: Two candidates: the K80 is cheap but slow, the V100 fast but 3.4x
#: the price (Table II ratios).
K80 = {"hw": "p2.xlarge", "least_t_max": 0.15, "best_y": 8,
       "cost_per_hour": 0.9}
V100 = {"hw": "p3.2xlarge", "least_t_max": 0.05, "best_y": 32,
        "cost_per_hour": 3.06}


def trace_of(events, **meta):
    return TraceData(meta={"slo_seconds": 0.2, **meta}, events=events)


class TestCostOfCompliance:
    def test_excess_prices_headroom_above_frontier(self):
        # Both candidates feasible (budget 0.17 ≥ both t_max); the run
        # chose the V100 for 3600 s while the K80 frontier sufficed.
        data = trace_of([tick(0.0, "p3.2xlarge", [K80, V100])],
                        duration=3600.0)
        cc = cost_of_compliance(data)
        assert cc.n_decisions == 1 and cc.n_infeasible == 0
        assert cc.covered_seconds == pytest.approx(3600.0)
        assert cc.actual_dollars == pytest.approx(3.06)
        assert cc.frontier_dollars == pytest.approx(0.9)
        assert cc.excess_dollars == pytest.approx(2.16)

    def test_on_frontier_run_has_zero_excess(self):
        data = trace_of([tick(0.0, "p2.xlarge", [K80, V100])],
                        duration=1800.0)
        cc = cost_of_compliance(data)
        assert cc.excess_dollars == pytest.approx(0.0)

    def test_infeasible_interval_counts_chosen_on_both_sides(self):
        # Tight budget: no candidate makes 0.02 s, so no cheaper
        # compliant choice existed — zero excess, but flagged.
        data = trace_of(
            [tick(0.0, "p3.2xlarge", [K80, V100], slo_budget=0.02)],
            duration=3600.0,
        )
        cc = cost_of_compliance(data)
        assert cc.n_infeasible == 1
        assert cc.excess_dollars == pytest.approx(0.0)
        assert cc.actual_dollars == pytest.approx(3.06)

    def test_intervals_span_tick_to_tick(self):
        # First 1800 s on the V100, second 1800 s on the K80.
        data = trace_of(
            [
                tick(0.0, "p3.2xlarge", [K80, V100]),
                tick(1800.0, "p2.xlarge", [K80, V100]),
            ],
            duration=3600.0,
        )
        cc = cost_of_compliance(data)
        assert cc.actual_dollars == pytest.approx((3.06 + 0.9) / 2)
        assert cc.frontier_dollars == pytest.approx(0.9)

    def test_null_least_t_max_means_infeasible(self):
        dead = {"hw": "p2.xlarge", "least_t_max": None, "best_y": None,
                "cost_per_hour": 0.9}
        data = trace_of(
            [tick(0.0, "p3.2xlarge", [dead, V100])], duration=100.0
        )
        cc = cost_of_compliance(data)
        # The K80 row is inf-feasibility; frontier falls to the V100.
        assert cc.excess_dollars == pytest.approx(0.0)

    def test_no_horizon_last_tick_covers_zero(self):
        data = TraceData(events=[tick(0.0, "p3.2xlarge", [K80, V100])])
        cc = cost_of_compliance(data)
        assert cc.covered_seconds == 0.0
        assert cc.n_decisions == 1

    def test_missing_budget_falls_back_to_slo_fraction(self):
        ev = tick(0.0, "p3.2xlarge", [K80, V100])
        del ev["attrs"]["slo_budget"]
        # 0.85 * 0.2 = 0.17 keeps both candidates feasible.
        cc = cost_of_compliance(trace_of([ev], duration=3600.0))
        assert cc.frontier_dollars == pytest.approx(0.9)
        assert cc.n_infeasible == 0

    def test_empty_trace_is_all_zero(self):
        cc = cost_of_compliance(TraceData())
        assert cc == ComplianceCost(0.0, 0.0, 0.0, 0, 0)


def make_breakdown():
    return CostBreakdown(
        total_dollars=0.05,
        bucket_dollars={
            "busy": 0.03, "coldstart": 0.01, "idle": 0.008,
            "reconfig": 0.002,
        },
        bucket_seconds={
            "busy": 30.0, "coldstart": 10.0, "idle": 8.0, "reconfig": 2.0,
        },
        spec_dollars={"g3s.xlarge": 0.05},
        batch_cost_dollars={1: 0.02, 2: 0.01},
    )


class TestRendering:
    def test_report_panels_present(self):
        text = render_cost_report(
            make_breakdown(),
            total_cost=0.05,
            compliance=ComplianceCost(3.06, 0.9, 3600.0, 1, 0),
        )
        assert "cost waterfall" in text
        assert "conservation residual" in text
        for bucket in BUCKETS:
            assert bucket in text
        assert "g3s.xlarge" in text
        assert "cost of compliance" in text

    def test_report_without_compliance(self):
        text = render_cost_report(make_breakdown())
        assert "cost of compliance" not in text
        assert "RunResult.total_cost" not in text


class TestExports:
    POINTS = [
        {"label": "paldia", "cost_dollars": 0.05, "compliance": 0.993},
        {"label": "molecule_P", "cost_dollars": 0.09, "compliance": 0.999},
    ]

    def test_frontier_svg_is_well_formed(self, tmp_path):
        path = str(tmp_path / "frontier.svg")
        write_cost_frontier_svg(self.POINTS, path)
        svg = open(path).read()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 2
        assert "paldia" in svg and "molecule_P" in svg
        assert "99%" in svg  # goal line

    def test_frontier_svg_handles_empty_points(self, tmp_path):
        path = str(tmp_path / "empty.svg")
        write_cost_frontier_svg([], path)
        assert "</svg>" in open(path).read()

    def test_breakdown_json_round_trips(self):
        rec = breakdown_json(
            make_breakdown(),
            total_cost=0.05,
            compliance=ComplianceCost(3.06, 0.9, 3600.0, 1, 0),
        )
        rec = json.loads(json.dumps(rec))  # must be JSON-serialisable
        assert rec["total_dollars"] == pytest.approx(0.05)
        assert rec["bucket_dollars"]["busy"] == pytest.approx(0.03)
        assert rec["cost_of_compliance"]["excess_dollars"] == (
            pytest.approx(2.16)
        )
        assert rec["attributed_dollars"] == pytest.approx(0.05)

    def test_write_cost_json_schema(self, tmp_path):
        path = str(tmp_path / "cost.json")
        runs = [{"scheme": "paldia", **breakdown_json(make_breakdown())}]
        write_cost_json(runs, path, model="resnet50", trace="azure")
        payload = json.load(open(path))
        assert payload["schema"] == "repro.cost/1"
        assert payload["model"] == "resnet50"
        assert payload["runs"][0]["scheme"] == "paldia"
