"""Conversion tests: ledger files from schemas 1-5 keep working under 6.

Schemas 1-5 kept one column per metric, each version adding columns;
schema 6 keeps the identity columns plus one JSON metrics payload.
Opening an older file converts it in place, in one transaction, keeping
run ids and every non-NULL value, and the ``runs list|show|compare``
CLI prints byte for byte what the schema-5 code printed on the same
file (``data/ledger_v5_cli.txt`` and ``data/ledger_v1_cli.txt`` were
captured from it).
"""

import json
import os
import sqlite3

import pytest

from repro.cli import main
from repro.telemetry.ledger import SCHEMA_VERSION, RunLedger

from tests.telemetry.test_ledger import make_result

DATA = os.path.join(os.path.dirname(__file__), "data")

#: The runs table exactly as schema v1 created it.
_V1_SCHEMA = """
CREATE TABLE ledger_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE runs (
    id              INTEGER PRIMARY KEY AUTOINCREMENT,
    created_utc     TEXT NOT NULL,
    git_sha         TEXT,
    scheme          TEXT NOT NULL,
    model           TEXT NOT NULL,
    trace           TEXT NOT NULL,
    seed            INTEGER NOT NULL,
    duration        REAL NOT NULL,
    slo_seconds     REAL NOT NULL,
    offered         INTEGER NOT NULL,
    completed       INTEGER NOT NULL,
    slo_compliance  REAL NOT NULL,
    violation_rate  REAL NOT NULL,
    p50_seconds     REAL NOT NULL,
    p99_seconds     REAL NOT NULL,
    total_cost      REAL NOT NULL,
    cold_starts     INTEGER NOT NULL,
    n_switches      INTEGER NOT NULL,
    cache_hits      INTEGER NOT NULL DEFAULT 0,
    cache_misses    INTEGER NOT NULL DEFAULT 0,
    extra_json      TEXT NOT NULL DEFAULT '{}'
);
INSERT INTO ledger_meta (key, value) VALUES ('schema_version', '1');
"""

_V1_ROW = """
INSERT INTO runs (
    created_utc, git_sha, scheme, model, trace, seed, duration,
    slo_seconds, offered, completed, slo_compliance, violation_rate,
    p50_seconds, p99_seconds, total_cost, cold_starts, n_switches
) VALUES (
    '2026-01-01T00:00:00+00:00', 'cafe123', 'paldia', 'resnet50',
    'azure', 0, 300.0, 0.5, 1000, 990, 0.98, 0.02,
    0.08, 0.2, 0.05, 12, 3
);
"""

#: The ``runs`` layout of every new or converted file.
COLUMNS = ["id", "created_utc", "git_sha", "scheme", "model", "trace",
           "seed", "duration", "metrics"]

#: The CLI transcripts pinned in ``data/``: the commands run on each
#: fixture, in order.
TRANSCRIPTS = {
    "v5": [
        ["runs", "list"],
        ["runs", "show", "1"], ["runs", "show", "2"],
        ["runs", "show", "3"], ["runs", "show", "4"],
        ["runs", "compare", "1", "2"], ["runs", "compare", "2", "3"],
        ["runs", "compare", "1", "4"], ["runs", "compare", "3", "2"],
    ],
    "v1": [
        ["runs", "list"], ["runs", "show", "1"], ["runs", "show", "2"],
        ["runs", "compare", "1", "2"],
    ],
}


def _v5_sql() -> str:
    with open(os.path.join(DATA, "ledger_v5.sql")) as fh:
        return fh.read()


def _build(path: str, sql: str) -> str:
    conn = sqlite3.connect(path)
    with conn:
        conn.executescript(sql)
    conn.close()
    return path


def _dump(path: str) -> list[str]:
    conn = sqlite3.connect(path)
    try:
        return list(conn.iterdump())
    finally:
        conn.close()


def _version(path: str) -> int:
    conn = sqlite3.connect(path)
    (version,) = conn.execute(
        "SELECT value FROM ledger_meta WHERE key = 'schema_version'"
    ).fetchone()
    conn.close()
    return int(version)


def _columns(path: str) -> list[str]:
    conn = sqlite3.connect(path)
    names = [r[1] for r in conn.execute("PRAGMA table_info(runs)")]
    conn.close()
    return names


@pytest.fixture()
def v1_path(tmp_path):
    """A genuine pre-conversion ledger file with two recorded runs."""
    return _build(str(tmp_path / "v1-ledger.sqlite"),
                  _V1_SCHEMA + _V1_ROW + _V1_ROW)


@pytest.fixture()
def v5_path(tmp_path):
    """The schema-5 fixture: plain, metered + profiled + cached,
    faulted + worst-request, and zero-offered runs."""
    return _build(str(tmp_path / "v5-ledger.sqlite"), _v5_sql())


class TestMigration:
    def test_open_migrates_in_place(self, v1_path):
        with RunLedger(v1_path) as ledger:
            assert len(ledger) == 2
            r = ledger.get(1)
            assert r.scheme == "paldia"
            assert r.metric("wall_seconds") == 0.0
            assert r.metric("top_phase") is None
            assert r.metric("top_phase_share") == 0.0
        # The file is stamped with the current schema: reopening skips
        # the conversion.
        assert _version(v1_path) == SCHEMA_VERSION

    def test_migrated_file_accepts_v2_rows(self, v1_path):
        with RunLedger(v1_path) as ledger:
            run_id = ledger.record(
                make_result(wall_seconds=1.25),
                trace="azure", seed=0,
                top_phase="batch.plan", top_phase_share=0.31,
            )
            r = ledger.get(run_id)
        assert run_id == 3
        assert r.metric("wall_seconds") == pytest.approx(1.25)
        assert r.metric("top_phase") == "batch.plan"
        assert r.metric("top_phase_share") == pytest.approx(0.31)

    def test_migrated_rows_default_cost_columns_to_zero(self, v1_path):
        with RunLedger(v1_path) as ledger:
            r = ledger.get(1)
        assert r.metric("idle_cost") == 0.0
        assert r.metric("coldstart_cost") == 0.0
        assert r.metric("cost_per_1k_requests") == 0.0

    def test_migrated_rows_default_worst_request_columns(self, v1_path):
        # Rows recorded before the worst-request metrics existed read the
        # "not traced" sentinels.
        with RunLedger(v1_path) as ledger:
            r = ledger.get(1)
        assert r.metric("worst_request_id") == -1
        assert r.metric("worst_request_latency") == 0.0
        assert r.metric("worst_request_phase") is None

    def test_migrated_file_accepts_v5_rows(self, v1_path):
        with RunLedger(v1_path) as ledger:
            run_id = ledger.record(
                make_result(), trace="azure", seed=0,
                worst_request_id=1234,
                worst_request_latency=2.75,
                worst_request_phase="cold_start_wait",
            )
            r = ledger.get(run_id)
        assert r.metric("worst_request_id") == 1234
        assert r.metric("worst_request_latency") == pytest.approx(2.75)
        assert r.metric("worst_request_phase") == "cold_start_wait"

    def test_compare_skips_cost_deltas_for_v1_rows(self, v1_path):
        # v1 rows carry no cost_per_1k_requests, so the cost deltas
        # (which need both sides metered) must stay out.
        with RunLedger(v1_path) as ledger:
            cmp = ledger.compare(1, 2)
        names = {d.name for d in cmp.deltas}
        assert "cost_per_1k_requests" not in names
        assert "idle_cost" not in names
        assert "coldstart_cost" not in names

    def test_compare_skips_wall_clock_for_v1_rows(self, v1_path):
        # v1 rows carry no wall_seconds, so the wall-clock delta (which
        # needs both sides measured) must stay out.
        with RunLedger(v1_path) as ledger:
            cmp = ledger.compare(1, 2)
        assert "wall_seconds" not in {d.name for d in cmp.deltas}
        assert not cmp.regressed

    def test_compare_includes_wall_clock_when_measured(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as ledger:
            ledger.record(make_result(wall_seconds=1.0), trace="azure",
                          seed=0)
            ledger.record(make_result(wall_seconds=1.1), trace="azure",
                          seed=0)
            ledger.record(make_result(wall_seconds=2.0), trace="azure",
                          seed=0)
            mild = ledger.compare(1, 2)
            severe = ledger.compare(1, 3)
        wall = next(d for d in mild.deltas if d.name == "wall_seconds")
        # +10% is inside the widened 25% noise floor for host wall-clock.
        assert not wall.regressed
        wall = next(d for d in severe.deltas if d.name == "wall_seconds")
        assert wall.regressed


class TestConversion:
    @pytest.mark.parametrize("fixture", ["v1_path", "v5_path"])
    def test_keeps_ids_and_every_value(self, fixture, request):
        path = request.getfixturevalue(fixture)
        conn = sqlite3.connect(path)
        conn.row_factory = sqlite3.Row
        old = [dict(r) for r in conn.execute("SELECT * FROM runs")]
        conn.close()
        identity = ("created_utc", "git_sha", "scheme", "model", "trace",
                    "seed", "duration")
        with RunLedger(path) as ledger:
            assert [r.run_id for r in ledger.list_runs()] == sorted(
                (row["id"] for row in old), reverse=True
            )
            for row in old:
                rec = ledger.get(row["id"])
                for name in identity:
                    assert getattr(rec, name) == row[name], name
                expected = json.loads(row.pop("extra_json"))
                expected.update(
                    (k, v) for k, v in row.items()
                    if k not in identity and k != "id" and v is not None
                )
                assert rec.metrics == expected

    @pytest.mark.parametrize("fixture", ["v1_path", "v5_path", None])
    def test_one_layout(self, fixture, request, tmp_path):
        path = (request.getfixturevalue(fixture) if fixture
                else str(tmp_path / "new.sqlite"))
        RunLedger(path).close()
        assert _columns(path) == COLUMNS
        assert _version(path) == SCHEMA_VERSION

    def test_second_open_is_a_no_op(self, v5_path):
        RunLedger(v5_path).close()
        converted = _dump(v5_path)
        RunLedger(v5_path).close()
        assert _dump(v5_path) == converted

    def test_newer_schema_refused_and_left_alone(self, v5_path):
        conn = sqlite3.connect(v5_path)
        with conn:
            conn.execute(
                "UPDATE ledger_meta SET value = ? "
                "WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        conn.close()
        before = _dump(v5_path)
        with pytest.raises(ValueError, match=f"schema {SCHEMA_VERSION + 1}"):
            RunLedger(v5_path)
        assert _dump(v5_path) == before

    def test_failure_mid_conversion_leaves_old_schema(
        self, v5_path, monkeypatch
    ):
        before = _dump(v5_path)
        calls = []
        insert = RunLedger._insert

        def failing_insert(self, identity, metrics):
            calls.append(identity[0])
            if len(calls) == 2:
                raise sqlite3.OperationalError("disk I/O error")
            return insert(self, identity, metrics)

        monkeypatch.setattr(RunLedger, "_insert", failing_insert)
        with pytest.raises(ValueError, match="disk I/O error"):
            RunLedger(v5_path)
        assert calls == [1, 2]  # the first row was already rewritten
        assert _dump(v5_path) == before
        assert _version(v5_path) == 5
        monkeypatch.undo()
        with RunLedger(v5_path) as ledger:
            assert len(ledger) == 4

    def test_new_rows_continue_the_id_sequence(self, v5_path):
        with RunLedger(v5_path) as ledger:
            assert ledger.record(make_result(), trace="azure", seed=0) == 5


class TestCliOnMigratedLedger:
    def test_runs_list_show_compare(self, v1_path, capsys):
        assert main(["runs", "list", "--ledger", v1_path]) == 0
        out = capsys.readouterr().out
        assert "wall_s" in out
        assert " - " in out  # unmeasured wall-clock renders as "-"

        assert main(["runs", "show", "1", "--ledger", v1_path]) == 0
        out = capsys.readouterr().out
        assert "paldia" in out
        assert "wall clock" not in out  # nothing measured, nothing shown

        assert main(
            ["runs", "compare", "1", "2", "--ledger", v1_path]
        ) == 0
        out = capsys.readouterr().out
        assert "verdict: no regressions" in out

    @pytest.mark.parametrize("version", ["v5", "v1"])
    def test_output_byte_identical_to_schema_5(
        self, version, tmp_path, monkeypatch, capsys
    ):
        sql = _v5_sql() if version == "v5" else (
            _V1_SCHEMA + _V1_ROW + _V1_ROW
        )
        monkeypatch.chdir(tmp_path)
        _build("ledger.sqlite", sql)
        parts = []
        for argv in TRANSCRIPTS[version]:
            argv = argv + ["--ledger", "ledger.sqlite"]
            rc = main(argv)
            out = capsys.readouterr().out
            parts.append(f"$ repro {' '.join(argv)}\n{out}[exit {rc}]\n")
        with open(os.path.join(DATA, f"ledger_{version}_cli.txt")) as fh:
            expected = fh.read()
        assert "".join(parts) == expected
