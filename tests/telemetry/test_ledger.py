"""Tests for the SQLite cross-run ledger."""

import sqlite3

import pytest

from repro.framework.system import RunResult
from repro.telemetry.ledger import (
    SCHEMA_VERSION,
    RunLedger,
    git_sha,
    render_comparison,
    render_run_rows,
)


def make_result(**overrides) -> RunResult:
    base = dict(
        scheme="paldia",
        model="resnet50",
        slo_seconds=0.5,
        duration=300.0,
        offered_requests=1000,
        completed_requests=990,
        unserved_requests=10,
        slo_compliance=0.98,
        p50_seconds=0.080,
        p99_seconds=0.200,
        total_cost=0.05,
        cost_by_spec={},
        time_by_spec={},
        energy_joules=0.0,
        avg_watts=0.0,
        utilization_by_spec={},
        tail_breakdown={},
        mode_split={},
        hardware_usage={},
        n_switches=3,
        cold_starts=12,
    )
    base.update(overrides)
    return RunResult(**base)


@pytest.fixture()
def ledger(tmp_path):
    with RunLedger(str(tmp_path / "ledger.sqlite")) as led:
        yield led


class TestRecordAndQuery:
    def test_record_returns_incrementing_ids(self, ledger):
        a = ledger.record(make_result(), trace="azure", seed=0)
        b = ledger.record(make_result(), trace="azure", seed=1)
        assert (a, b) == (1, 2)
        assert len(ledger) == 2

    def test_round_trip_fields(self, ledger):
        ledger.record(
            make_result(), trace="wiki", seed=7, sha="abc1234",
            cache_hits=3, cache_misses=1, note="x",
        )
        r = ledger.get(1)
        assert r.scheme == "paldia" and r.model == "resnet50"
        assert r.trace == "wiki" and r.seed == 7
        assert r.git_sha == "abc1234"
        assert r.metric("slo_compliance") == pytest.approx(0.98)
        assert r.metric("violation_rate") == pytest.approx(0.02)
        assert r.metric("cache_hits") == 3 and r.metric("cache_misses") == 1
        assert r.metric("note") == "x"

    def test_new_metric_needs_no_schema_change(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0,
                      eq1_p99_abs_error=0.01)
        assert ledger.get(1).metric("eq1_p99_abs_error") == 0.01
        assert SCHEMA_VERSION == 6

    def test_caller_metric_wins_over_result_metric(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0,
                      p99_seconds=0.5)
        assert ledger.get(1).metric("p99_seconds") == 0.5

    def test_missing_metric_reads_old_column_default(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0)
        r = ledger.get(1)
        assert r.metric("cache_hits") == 0
        assert r.metric("worst_request_id") == -1
        assert r.metric("top_phase") is None
        assert r.metric("top_phase", "-") == "-"
        assert r.metric("idle_cost", None) is None

    def test_worst_request_read_from_request_trace(self, ledger):
        class View:
            rid, latency, dominant_phase = 41, 0.75, "cold_start_wait"

        class Trace:
            def worst(self, k):
                return [View()][:k]

        ledger.record(make_result(reqtrace=Trace()), trace="azure", seed=0)
        r = ledger.get(1)
        assert r.metric("worst_request_id") == 41
        assert r.metric("worst_request_latency") == 0.75
        assert r.metric("worst_request_phase") == "cold_start_wait"

    def test_list_newest_first_with_limit(self, ledger):
        for seed in range(4):
            ledger.record(make_result(), trace="azure", seed=seed)
        runs = ledger.list_runs(limit=2)
        assert [r.run_id for r in runs] == [4, 3]

    def test_get_missing_raises_keyerror(self, ledger):
        with pytest.raises(KeyError):
            ledger.get(99)

    def test_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as led:
            led.record(make_result(), trace="azure", seed=0)
        with RunLedger(path) as led:
            assert len(led) == 1

    def test_newer_schema_rejected(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        RunLedger(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE ledger_meta SET value = '999' "
            "WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="schema 999"):
            RunLedger(path)

    def test_non_database_file_rejected_by_path(self, tmp_path):
        path = tmp_path / "README.md"
        path.write_text("# not a ledger\n" * 100)
        with pytest.raises(ValueError, match="README.md"):
            RunLedger(str(path))

    def test_directory_rejected_by_path(self, tmp_path):
        with pytest.raises(ValueError, match=str(tmp_path)):
            RunLedger(str(tmp_path))


class TestCostColumns:
    def _breakdown(self, idle=0.008, coldstart=0.01):
        from repro.telemetry.costmeter import CostBreakdown

        busy = 0.05 - idle - coldstart - 0.002
        return CostBreakdown(
            total_dollars=0.05,
            bucket_dollars={
                "busy": busy, "coldstart": coldstart,
                "idle": idle, "reconfig": 0.002,
            },
        )

    def test_cost_columns_round_trip(self, ledger):
        result = make_result()
        result.cost_breakdown = self._breakdown()
        ledger.record(result, trace="azure", seed=0)
        r = ledger.get(1)
        assert r.metric("idle_cost") == pytest.approx(0.008)
        assert r.metric("coldstart_cost") == pytest.approx(0.01)
        # $0.05 over 1000 offered requests.
        assert r.metric("cost_per_1k_requests") == pytest.approx(0.05)

    def test_unmetered_run_records_zero_overheads(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0)
        r = ledger.get(1)
        assert r.metric("idle_cost") == 0.0
        assert r.metric("coldstart_cost") == 0.0
        assert r.metric("cost_per_1k_requests") == pytest.approx(0.05)

    def test_cost_per_1k_regression_flagged(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0)
        ledger.record(
            make_result(total_cost=0.08), trace="azure", seed=0
        )
        cmp = ledger.compare(1, 2)
        assert "cost_per_1k_requests" in [d.name for d in cmp.regressions]

    def test_idle_cost_regression_flagged(self, ledger):
        a = make_result()
        a.cost_breakdown = self._breakdown(idle=0.005)
        b = make_result()
        b.cost_breakdown = self._breakdown(idle=0.020)
        ledger.record(a, trace="azure", seed=0)
        ledger.record(b, trace="azure", seed=0)
        cmp = ledger.compare(1, 2)
        assert "idle_cost" in [d.name for d in cmp.regressions]


class TestCompare:
    def test_identical_runs_not_regressed(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0)
        ledger.record(make_result(), trace="azure", seed=0)
        cmp = ledger.compare(1, 2)
        assert cmp.comparable
        assert not cmp.regressed
        assert not any(d.improved for d in cmp.deltas)

    def test_p99_regression_flagged(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0)
        ledger.record(
            make_result(p99_seconds=0.300), trace="azure", seed=0
        )
        cmp = ledger.compare(1, 2)
        assert cmp.regressed
        assert [d.name for d in cmp.regressions] == ["p99_seconds"]

    def test_within_tolerance_not_flagged(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0)
        ledger.record(
            make_result(p99_seconds=0.205), trace="azure", seed=0
        )
        assert not ledger.compare(1, 2).regressed

    def test_compliance_drop_uses_absolute_tolerance(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0)
        ledger.record(
            make_result(slo_compliance=0.96), trace="azure", seed=0
        )
        cmp = ledger.compare(1, 2)
        assert "slo_compliance" in [d.name for d in cmp.regressions]

    def test_improvement_flagged(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0)
        ledger.record(
            make_result(total_cost=0.03), trace="azure", seed=0
        )
        cmp = ledger.compare(1, 2)
        assert "total_cost" in [d.name for d in cmp.deltas if d.improved]

    def test_mismatched_configs_marked_incomparable(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0)
        ledger.record(make_result(), trace="wiki", seed=0)
        assert not ledger.compare(1, 2).comparable

    def test_custom_tolerances(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0)
        ledger.record(
            make_result(p99_seconds=0.206), trace="azure", seed=0
        )
        assert not ledger.compare(1, 2, rel_tolerance=0.05).regressed
        assert ledger.compare(1, 2, rel_tolerance=0.01).regressed


class TestRendering:
    def test_render_rows_shape(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0, sha="abc")
        rows = render_run_rows(ledger.list_runs())
        assert rows[0][0] == 1 and rows[0][2] == "abc"

    def test_render_comparison_verdicts(self, ledger):
        ledger.record(make_result(), trace="azure", seed=0)
        ledger.record(
            make_result(p99_seconds=0.300), trace="azure", seed=0
        )
        text = render_comparison(ledger.compare(1, 2))
        assert "verdict: REGRESSED (p99_seconds)" in text
        ledger.record(make_result(), trace="azure", seed=0)
        text = render_comparison(ledger.compare(1, 3))
        assert "verdict: no regressions" in text


class TestGitSha:
    def test_inside_repo_returns_short_sha(self):
        sha = git_sha()  # the test suite runs inside the repo checkout
        assert sha is None or (4 <= len(sha) <= 40)

    def test_outside_repo_returns_none(self, tmp_path):
        assert git_sha(cwd=str(tmp_path)) is None
