"""CLI tests for --live / --timeseries-out / --ledger and the
``timeseries-report`` and ``runs`` commands."""

import pytest

from repro.cli import build_parser, main

RUN_ARGS = ["run", "resnet50", "--trace", "poisson", "--duration", "10",
            "--timeseries-interval", "1.0"]


class TestParser:
    def test_run_flag_defaults(self):
        args = build_parser().parse_args(["run", "resnet50"])
        assert args.live is False
        assert args.timeseries_out is None
        assert args.ledger is None
        assert args.timeseries_interval == 0.5

    def test_ledger_flag_without_value_uses_default(self):
        args = build_parser().parse_args(["run", "resnet50", "--ledger"])
        assert args.ledger == ".repro-ledger.sqlite"

    def test_runs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs"])

    def test_runs_ledger_flag_after_subcommand(self):
        args = build_parser().parse_args(
            ["runs", "list", "--ledger", "x.sqlite"]
        )
        assert args.ledger == "x.sqlite"


class TestRunFlags:
    def test_timeseries_out_writes_bundle(self, capsys, tmp_path):
        out = str(tmp_path / "ts.jsonl")
        assert main(RUN_ARGS + ["--timeseries-out", out]) == 0
        text = capsys.readouterr().out
        assert "time-series columns" in text
        from repro.telemetry import read_timeseries

        data = read_timeseries(out)
        assert data.n_samples > 0
        assert "rate.offered" in data.names()

    def test_live_non_tty_fallback_lines(self, capsys):
        assert main(RUN_ARGS + ["--live"]) == 0
        text = capsys.readouterr().out
        assert "[live]" in text
        assert "\x1b" not in text  # no ANSI escapes when not a TTY

    def test_ledger_records_run(self, capsys, tmp_path):
        db = str(tmp_path / "ledger.sqlite")
        assert main(RUN_ARGS + ["--ledger", db]) == 0
        assert "recorded run #1" in capsys.readouterr().out

    def test_ledger_records_the_worst_traced_request(self, capsys,
                                                     tmp_path):
        def worst_line(text):
            (line,) = [ln for ln in text.splitlines()
                       if ln.startswith("worst request")]
            return line.split(":", 1)[1].strip()

        db = str(tmp_path / "ledger.sqlite")
        assert main(RUN_ARGS + ["--reqtrace", "--ledger", db]) == 0
        printed = worst_line(capsys.readouterr().out)
        assert main(["runs", "show", "1", "--ledger", db]) == 0
        assert worst_line(capsys.readouterr().out) == printed

    def test_zero_interval_with_timeseries_out_errors(self, capsys,
                                                      tmp_path):
        out = tmp_path / "ts.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(RUN_ARGS[:-2] + ["--timeseries-interval", "0",
                                  "--timeseries-out", str(out)])
        assert exc.value.code == 2
        assert "argument --timeseries-interval:" in capsys.readouterr().err
        assert not out.exists()


class TestTimeseriesReportCommand:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("ts") / "bundle.npz")
        assert main(RUN_ARGS + ["--timeseries-out", out]) == 0
        return out

    def test_renders_panels(self, bundle, capsys):
        assert main(["timeseries-report", bundle]) == 0
        text = capsys.readouterr().out
        assert "offered vs predicted rate" in text
        assert "pools & control" in text

    def test_svg_export(self, bundle, capsys, tmp_path):
        svg = str(tmp_path / "panels.svg")
        assert main(["timeseries-report", bundle, "--svg", svg]) == 0
        assert "SVG panels" in capsys.readouterr().out
        assert open(svg).read().startswith("<svg")

    def test_missing_bundle_errors(self, capsys):
        assert main(["timeseries-report", "/nonexistent.npz"]) == 1


class TestRunsCommands:
    @pytest.fixture(scope="class")
    def db(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("ledger") / "runs.sqlite")
        assert main(RUN_ARGS + ["--seed", "0", "--ledger", path]) == 0
        assert main(RUN_ARGS + ["--seed", "0", "--ledger", path]) == 0
        return path

    def test_list(self, db, capsys):
        assert main(["runs", "list", "--ledger", db]) == 0
        text = capsys.readouterr().out
        assert "run ledger" in text
        assert "paldia" in text

    def test_show(self, db, capsys):
        assert main(["runs", "show", "1", "--ledger", db]) == 0
        text = capsys.readouterr().out
        assert "SLO compliance" in text and "run #1" in text

    def test_show_missing_run(self, db, capsys):
        assert main(["runs", "show", "99", "--ledger", db]) == 1

    def test_compare_identical_seeds_no_regression(self, db, capsys):
        assert main(["runs", "compare", "1", "2", "--ledger", db]) == 0
        text = capsys.readouterr().out
        assert "verdict: no regressions" in text

    def test_compare_flags_regression_exit_code(self, db, capsys):
        # An impossibly tight tolerance can't flag identical runs ...
        assert main(["runs", "compare", "1", "2", "--ledger", db,
                     "--rel-tolerance", "0"]) == 0
        capsys.readouterr()
        # ... but recording a worse run and comparing does exit 2.
        from repro.framework.system import RunResult
        from repro.telemetry import RunLedger

        with RunLedger(db) as ledger:
            base = ledger.get(1)
            m = base.metric
            worse = RunResult(
                scheme=base.scheme, model=base.model,
                slo_seconds=m("slo_seconds"), duration=base.duration,
                offered_requests=m("offered"),
                completed_requests=m("completed"),
                unserved_requests=0,
                slo_compliance=m("slo_compliance"),
                p50_seconds=m("p50_seconds"),
                p99_seconds=m("p99_seconds") * 10,
                total_cost=m("total_cost"),
                cost_by_spec={}, time_by_spec={}, energy_joules=0.0,
                avg_watts=0.0, utilization_by_spec={},
                tail_breakdown={}, mode_split={}, hardware_usage={},
                n_switches=m("n_switches"), cold_starts=m("cold_starts"),
            )
            worse_id = ledger.record(worse, trace=base.trace,
                                     seed=base.seed)
        assert main(["runs", "compare", "1", str(worse_id),
                     "--ledger", db]) == 2
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_ledger_errors(self, capsys):
        assert main(["runs", "list", "--ledger", "/nonexistent.db"]) == 1


class TestUnusableLedger:
    """A path that is not a usable ledger is an error line, never a
    traceback: exit 1 for ``runs``, a warning (and the run's own exit
    status) for ``run --ledger``."""

    @pytest.fixture()
    def not_a_db(self, tmp_path):
        path = tmp_path / "README.md"
        path.write_text("# a readme, not a ledger\n" * 100)
        return str(path)

    @pytest.fixture()
    def newer_schema(self, tmp_path):
        import sqlite3

        from repro.telemetry.ledger import SCHEMA_VERSION, RunLedger

        path = str(tmp_path / "newer.sqlite")
        RunLedger(path).close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE ledger_meta SET value = ? "
                "WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        conn.close()
        return path

    def _one_error_line(self, out, path):
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 1, out
        assert lines[0].startswith("[error]") and path in lines[0]

    def test_runs_list_on_non_database_file(self, not_a_db, capsys):
        assert main(["runs", "list", "--ledger", not_a_db]) == 1
        self._one_error_line(capsys.readouterr().out, not_a_db)

    def test_runs_show_on_directory(self, tmp_path, capsys):
        assert main(["runs", "show", "1", "--ledger", str(tmp_path)]) == 1
        self._one_error_line(capsys.readouterr().out, str(tmp_path))

    def test_runs_compare_on_newer_schema(self, newer_schema, capsys):
        assert main(
            ["runs", "compare", "1", "2", "--ledger", newer_schema]
        ) == 1
        self._one_error_line(capsys.readouterr().out, newer_schema)

    def test_run_with_unusable_ledger_warns_and_succeeds(
        self, not_a_db, capsys
    ):
        assert main(RUN_ARGS + ["--ledger", not_a_db]) == 0
        out = capsys.readouterr().out
        warnings = [ln for ln in out.splitlines() if ln.startswith("[warn")]
        assert len(warnings) == 1 and not_a_db in warnings[0]
        assert "recorded run" not in out
        assert "SLO compliance" in out  # the run's own output is intact

    def test_failed_write_prints_no_row_id(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.telemetry.ledger import RunLedger

        def failing_record(self, result, **kwargs):
            # What record() does when the INSERT itself fails.
            self._warn_write.note(self.path, "database is locked")
            return -1

        monkeypatch.setattr(RunLedger, "record", failing_record)
        db = str(tmp_path / "ledger.sqlite")
        assert main(RUN_ARGS + ["--ledger", db]) == 0
        out = capsys.readouterr().out
        assert "not recorded" in out
        assert "recorded run" not in out
