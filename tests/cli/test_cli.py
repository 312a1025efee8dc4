"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.telemetry import Tracer, write_jsonl


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "resnet50"])
        assert args.scheme == "paldia"
        assert args.trace == "azure"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "resnet50", "--scheme", "bogus"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table2"])
        assert args.experiment_id == "table2"


class TestCacheFlags:
    def test_cache_on_by_default(self):
        args = build_parser().parse_args(["experiment", "table2"])
        assert args.no_cache is False
        assert args.cache_dir == ".repro-cache"

    def test_no_cache_flag(self):
        args = build_parser().parse_args(
            ["experiment", "table2", "--no-cache"]
        )
        assert args.no_cache is True

    def test_custom_cache_dir(self):
        args = build_parser().parse_args(
            ["experiment", "fig7", "--cache-dir", "/tmp/elsewhere"]
        )
        assert args.cache_dir == "/tmp/elsewhere"

    def test_rerun_replays_from_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["experiment", "fig5", "--duration", "15",
                "--repetitions", "1", "--cache-dir", cache_dir]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache: replayed" in second
        # 100% of cells replayed: "replayed N/N".
        line = next(l for l in second.splitlines()
                    if l.startswith("cache: replayed"))
        replayed, total = line.split()[2].split("/")
        assert replayed == total and int(total) > 0
        # The cached rerun renders the identical report.  The cache
        # banner and the executor summary legitimately differ (computed
        # vs replayed counts); everything else must match exactly.
        strip = lambda s: [l for l in s.splitlines()
                           if not l.startswith(("cache:", "matrix complete:"))]
        assert strip(first) == strip(second)

    def test_no_cache_disables_replay(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        base = ["experiment", "fig5", "--duration", "15",
                "--repetitions", "1", "--cache-dir", cache_dir]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--no-cache"]) == 0
        assert "cache: replayed" not in capsys.readouterr().out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "paldia" in out

    def test_list_shows_registered_experiments(self, capsys):
        from repro.experiments.registry import experiment_ids

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in experiment_ids():
            assert experiment_id in out

    def test_profiles(self, capsys):
        assert main(["profiles", "bert"]) == 0
        assert "p3.2xlarge" in capsys.readouterr().out

    def test_run_short(self, capsys):
        assert main(["run", "resnet50", "--duration", "30"]) == 0
        assert "SLO compliance" in capsys.readouterr().out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "g3s.xlarge" in capsys.readouterr().out


#: A short seeded scenario: poisson at ResNet 50's peak for 20 s, seed 3.
SEEDED = ["resnet50", "--trace", "poisson", "--duration", "20", "--seed", "3"]


def run_result(out: str) -> dict[str, str]:
    """The "run result" table of ``repro run`` output, field -> value."""
    lines = out.splitlines()
    rows = lines[lines.index("run result") + 1:]
    fields = {}
    for line in rows:
        if not line:
            break
        name, value = line.split(" : ", 1)
        fields[name.strip()] = value.strip()
    return fields


class TestSeededScenario:
    """``--seed`` seeds the cluster as well as the trace, on every
    command that serves a scenario, with or without telemetry."""

    def test_tracing_does_not_change_the_run_result(self, capsys, tmp_path):
        assert main(["run", *SEEDED]) == 0
        plain = run_result(capsys.readouterr().out)
        assert main(
            ["run", *SEEDED, "--trace-out", str(tmp_path / "run.jsonl")]
        ) == 0
        traced = run_result(capsys.readouterr().out)
        assert plain == traced

    def test_compare_row_matches_the_traced_run(self, capsys, tmp_path):
        assert main(
            ["run", *SEEDED, "--trace-out", str(tmp_path / "run.jsonl")]
        ) == 0
        run = run_result(capsys.readouterr().out)
        assert main(["compare", *SEEDED]) == 0
        (row,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("Paldia ")
        ]
        slo, p99, cost, switches = [c.strip() for c in row.split("|")[1:]]
        assert f"{slo}%" == run["SLO compliance"]
        assert float(p99) == float(run["P99"].removesuffix(" ms"))
        assert f"${cost}" == run["cost"]
        assert switches == run["switches"]

    @pytest.mark.parametrize(
        "command", ["run", "compare", "profile", "cost-report"]
    )
    def test_cluster_runs_on_the_seed(self, command, capsys, monkeypatch):
        import repro.cli

        seeds = []
        real = repro.cli.ServerlessRun

        def recording(*args, **kwargs):
            run = real(*args, **kwargs)
            seeds.append(run.config.seed)
            return run

        monkeypatch.setattr(repro.cli, "ServerlessRun", recording)
        assert main([
            command, "resnet50", "--trace", "poisson", "--duration", "5",
            "--seed", "3",
        ]) == 0
        assert seeds and set(seeds) == {3}

    def test_experiment_seed_defaults_to_the_runner_own(self):
        args = build_parser().parse_args(["experiment", "fig3"])
        assert args.seed is None


class TestInputErrors:
    """A missing or unusable input is one ``[error]`` line, exit 1."""

    @pytest.fixture
    def paths(self, tmp_path):
        garbage = tmp_path / "garbage.txt"
        garbage.write_text("not json\n")
        return str(tmp_path / "missing.json"), str(garbage)

    @pytest.mark.parametrize("argv,message", [
        (["run", "resnet50", "--duration", "5", "--chaos", "{missing}"],
         "chaos spec not found: {missing}"),
        (["run", "resnet50", "--duration", "5", "--chaos", "{garbage}"],
         "invalid chaos spec: "),
        (["profile", "--diff", "{missing}", "{missing}"],
         "profile not found: "),
        (["profile", "--diff", "{garbage}", "{garbage}"],
         "not a valid self-profile: "),
        (["trace-report", "{missing}"], "trace file not found: {missing}"),
        (["trace-report", "{garbage}"], "not a valid trace file: "),
        (["request-trace", "{missing}"],
         "request trace not found: {missing}"),
        (["request-trace", "{garbage}"], "not a valid request trace: "),
        (["timeseries-report", "{missing}"],
         "time-series bundle not found: {missing}"),
        (["timeseries-report", "{garbage}"],
         "not a valid time-series bundle: "),
        (["runs", "list", "--ledger", "{missing}"],
         "no ledger at {missing} (record runs with: repro run MODEL --ledger)"),
        (["runs", "list", "--ledger", "{garbage}"], "{garbage}"),
        (["trace-attribution", "{missing}"],
         "trace file not found: {missing}"),
        (["trace-attribution", "{garbage}"], "cannot attribute trace: "),
        (["trace-diff", "{missing}", "{missing}"], "trace file not found: "),
        (["trace-diff", "{garbage}", "{garbage}"], "cannot diff traces: "),
        (["cost-report", "resnet50", "--schemes", "bogus"],
         "unknown scheme(s): bogus (available: "),
    ])
    def test_one_error_line(self, argv, message, paths, capsys):
        missing, garbage = paths
        argv = [a.format(missing=missing, garbage=garbage) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        (line,) = captured.out.splitlines()
        prefix = "[error] repro.cli: "
        assert line.startswith(
            prefix + message.format(missing=missing, garbage=garbage)
        )
        assert "Traceback" not in captured.err

    def test_unknown_run_and_request_ids(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.sqlite"
        reqtrace = tmp_path / "req.jsonl"
        assert main([
            "run", "resnet50", "--trace", "poisson", "--duration", "5",
            "--ledger", str(ledger), "--reqtrace-out", str(reqtrace),
        ]) == 0
        capsys.readouterr()
        for argv in (
            ["runs", "show", "99", "--ledger", str(ledger)],
            ["runs", "compare", "1", "99", "--ledger", str(ledger)],
            ["request-trace", str(reqtrace), "--request", "10000000"],
        ):
            assert main(argv) == 1
            (line,) = capsys.readouterr().out.splitlines()
            assert line.startswith("[error] repro.cli: ")


class TestLoggingStream:
    def test_warning_after_a_closed_redirect_prints(self, capsys):
        """Log records go to the ``sys.stdout`` of the moment they are
        emitted, not to a stream a caller redirected and closed."""
        import contextlib
        import io
        import logging

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["list"]) == 0
        buffer.close()
        logging.getLogger("repro.experiments.cache").warning("cache degraded")
        captured = capsys.readouterr()
        assert "Logging error" not in captured.err
        assert "cache degraded" in captured.out


class TestTelemetryFlags:
    def test_trace_out_flag_parses(self):
        args = build_parser().parse_args(
            ["run", "resnet50", "--trace-out", "x.jsonl"]
        )
        assert args.trace_out == "x.jsonl"
        assert args.chrome_trace is None
        assert args.self_profile is False

    def test_verbose_flag_on_subcommand(self):
        assert build_parser().parse_args(["list", "-v"]).verbose is True
        assert build_parser().parse_args(["list"]).verbose is False

    def test_traced_run_writes_both_exports(self, capsys, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.json"
        assert main([
            "run", "resnet50", "--trace", "poisson", "--duration", "10",
            "--trace-out", str(jsonl), "--chrome-trace", str(chrome),
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry" in out and "wrote" in out
        assert jsonl.exists() and chrome.exists()

    def test_trace_report_roundtrip(self, capsys, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        assert main([
            "run", "resnet50", "--trace", "poisson", "--duration", "10",
            "--trace-out", str(jsonl),
        ]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "latency breakdown" in out
        assert "hardware-selection audit" in out

    def test_trace_report_missing_file_is_clean_error(self, capsys):
        assert main(["trace-report", "/nonexistent/run.jsonl"]) == 1
        assert "not found" in capsys.readouterr().out

    def test_trace_report_garbage_file_is_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace-report", str(bad)]) == 1
        assert "not a valid trace file" in capsys.readouterr().out

    def test_self_profile_prints_engine_site_frames(self, capsys):
        assert main([
            "run", "resnet50", "--trace", "poisson", "--duration", "10",
            "--self-profile",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        (engine,) = [i for i, ln in enumerate(lines) if "  engine " in ln]
        # Callback-site frames sit one level deeper than "engine".
        indent = len(lines[engine]) - len(lines[engine].lstrip())
        site = next(ln for ln in lines[engine + 1:] if "cb:" in ln)
        assert len(site) - len(site.lstrip()) > indent

    def test_prom_out_writes_snapshot(self, capsys, tmp_path):
        prom = tmp_path / "run.prom"
        assert main([
            "run", "resnet50", "--trace", "poisson", "--duration", "10",
            "--prom-out", str(prom),
        ]) == 0
        assert "Prometheus samples" in capsys.readouterr().out
        text = prom.read_text()
        assert "# TYPE" in text
        assert "repro_slo_window_attainment" in text


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    """One short traced run, recorded once for every analysis test."""
    path = str(tmp_path_factory.mktemp("cli") / "run.jsonl")
    assert main([
        "run", "resnet50", "--trace", "poisson", "--duration", "20",
        "--trace-out", path,
    ]) == 0
    return path


def _write_trace(tmp_path, slo_seconds=None, spans=()):
    tracer = Tracer()
    if slo_seconds is not None:
        tracer.meta["slo_seconds"] = slo_seconds
    for start, end in spans:
        tracer.span(
            f"batch#{start}", start, end, cat="request", track="g3s.xlarge",
            batch_id=1, model="resnet50", n=2, mode="batch",
            hardware="g3s.xlarge", batching_wait=0.0, cold_start_wait=0.0,
            queue_delay=0.0, exec_solo=end - start, interference_extra=0.0,
        )
    path = tmp_path / "crafted.jsonl"
    write_jsonl(tracer, str(path))
    return str(path)


class TestTraceReportRegressions:
    def test_empty_trace_exits_clean(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace-report", str(empty)]) == 0
        assert "no SLO violations (no request spans recorded)" in (
            capsys.readouterr().out
        )

    def test_violation_free_trace_exits_clean(self, capsys, tmp_path):
        path = _write_trace(
            tmp_path, slo_seconds=0.2, spans=[(0.0, 0.05), (1.0, 1.08)]
        )
        assert main(["trace-report", path]) == 0
        out = capsys.readouterr().out
        assert "no SLO violations" in out
        assert "no request spans recorded" not in out


class TestTraceAttribution:
    def test_attribution_on_recorded_run(self, capsys, recorded_trace):
        assert main(["trace-attribution", recorded_trace]) == 0
        out = capsys.readouterr().out
        assert "slo attribution" in out
        assert "attainment" in out

    def test_json_and_html_artifacts(self, capsys, recorded_trace, tmp_path):
        out_json = tmp_path / "attr.json"
        out_html = tmp_path / "attr.html"
        assert main([
            "trace-attribution", recorded_trace,
            "--json", str(out_json), "--html", str(out_html),
        ]) == 0
        doc = json.loads(out_json.read_text())
        assert doc["schema"] == "repro.attribution/1"
        assert out_html.read_text().startswith("<!DOCTYPE html>")

    def test_explicit_slo_override(self, capsys, recorded_trace):
        # A 10-second deadline makes every span compliant.
        assert main([
            "trace-attribution", recorded_trace, "--slo", "10000",
        ]) == 0
        assert "no SLO violations" in capsys.readouterr().out

    def test_missing_file_is_clean_error(self, capsys):
        assert main(["trace-attribution", "/nonexistent/run.jsonl"]) == 1
        assert "not found" in capsys.readouterr().out

    def test_trace_without_slo_is_clean_error(self, capsys, tmp_path):
        path = _write_trace(tmp_path, slo_seconds=None, spans=[(0.0, 0.05)])
        assert main(["trace-attribution", path]) == 1
        assert "slo_seconds" in capsys.readouterr().out


class TestOlderTraceFiles:
    """Trace files come from outside the program: a file written before
    the JSONL trace stopped carrying ``sample`` rows must still load."""

    FIXTURE = str(
        Path(__file__).parents[1] / "telemetry" / "data"
        / "trace_with_sample_rows.jsonl"
    )

    def test_fixture_has_sample_rows(self):
        with open(self.FIXTURE) as fh:
            assert any('"type": "sample"' in line for line in fh)

    def test_read_jsonl_skips_sample_rows(self):
        from repro.telemetry import read_jsonl

        data = read_jsonl(self.FIXTURE)
        assert data.meta["slo_seconds"] == 0.2
        assert data.spans_in("request") and data.events

    def test_trace_report_exits_zero(self, capsys):
        assert main(["trace-report", self.FIXTURE, "--max-rows", "3"]) == 0
        assert "latency breakdown" in capsys.readouterr().out

    def test_trace_attribution_exits_zero(self, capsys):
        assert main(["trace-attribution", self.FIXTURE]) == 0
        assert "slo attribution" in capsys.readouterr().out


class TestTraceDiff:
    def test_self_diff_reports_zero_deltas(self, capsys, recorded_trace):
        assert main(["trace-diff", recorded_trace, recorded_trace]) == 0
        assert "traces are equivalent: zero deltas" in (
            capsys.readouterr().out
        )

    def test_missing_file_is_clean_error(self, capsys, recorded_trace):
        assert main([
            "trace-diff", recorded_trace, "/nonexistent/run.jsonl",
        ]) == 1
        assert "not found" in capsys.readouterr().out

    def test_parser_accepts_slo_override(self):
        args = build_parser().parse_args(
            ["trace-diff", "a.jsonl", "b.jsonl", "--slo", "300"]
        )
        assert args.baseline == "a.jsonl"
        assert args.candidate == "b.jsonl"
        assert args.slo == pytest.approx(300.0)


#: One malformed numeric flag per row: the command line, and the flag
#: argparse must name.
MALFORMED_FLAGS = [
    (["run", "resnet50", "--reqtrace", "--reqtrace-sample", "2"],
     "--reqtrace-sample"),
    (["run", "resnet50", "--reqtrace-sample", "-0.1"], "--reqtrace-sample"),
    (["run", "resnet50", "--budget", "0"], "--budget"),
    (["run", "resnet50", "--budget", "-1"], "--budget"),
    (["cost-report", "resnet50", "--budget", "-1"], "--budget"),
    (["run", "resnet50", "--duration", "0"], "--duration"),
    (["run", "resnet50", "--duration", "-1"], "--duration"),
    (["run", "resnet50", "--duration", "nan"], "--duration"),
    (["run", "resnet50", "--duration", "inf"], "--duration"),
    (["compare", "resnet50", "--duration", "-1"], "--duration"),
    (["profile", "resnet50", "--duration", "0"], "--duration"),
    (["cost-report", "resnet50", "--duration", "0"], "--duration"),
    (["experiment", "fig3", "--duration", "-5"], "--duration"),
    (["run", "resnet50", "--seed", "-1"], "--seed"),
    (["compare", "resnet50", "--seed", "-1"], "--seed"),
    (["profile", "resnet50", "--seed", "-1"], "--seed"),
    (["cost-report", "resnet50", "--seed", "-1"], "--seed"),
    (["experiment", "fig3", "--seed", "-1"], "--seed"),
    (["experiment", "fig3", "--repetitions", "0"], "--repetitions"),
    (["experiment", "fig3", "--cell-retries", "-1"], "--cell-retries"),
    (["experiment", "fig3", "--cell-timeout", "0"], "--cell-timeout"),
    (["run", "resnet50", "--duration", "soon"], "--duration"),
    (["timeseries-report", "bundle.npz", "--width", "0"], "--width"),
    (["timeseries-report", "bundle.npz", "--width", "7"], "--width"),
    (["timeseries-report", "bundle.npz", "--width", "-5"], "--width"),
    (["request-trace", "trace.jsonl", "--worst", "0"], "--worst"),
    (["request-trace", "trace.jsonl", "--worst", "-1"], "--worst"),
    (["trace-attribution", "trace.jsonl", "--slo", "-5"], "--slo"),
    (["trace-attribution", "trace.jsonl", "--slo", "0"], "--slo"),
    (["trace-attribution", "trace.jsonl", "--slo", "nan"], "--slo"),
    (["trace-diff", "a.jsonl", "b.jsonl", "--slo", "-5"], "--slo"),
    (["trace-diff", "a.jsonl", "b.jsonl", "--slo", "inf"], "--slo"),
]


@pytest.mark.parametrize(
    "argv,flag", MALFORMED_FLAGS,
    ids=[f"{argv[0]}{flag}={argv[-1]}" for argv, flag in MALFORMED_FLAGS],
)
def test_malformed_numeric_flag_is_one_usage_line(argv, flag, capsys,
                                                  monkeypatch):
    import repro.cli

    started = []
    for handler in ("_cmd_run", "_cmd_compare", "_cmd_profile",
                    "_cmd_cost_report", "_cmd_experiment",
                    "_cmd_timeseries_report", "_cmd_request_trace",
                    "_cmd_trace_attribution", "_cmd_trace_diff"):
        monkeypatch.setattr(repro.cli, handler,
                            lambda args, name=handler: started.append(name))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"argument {flag}:" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert started == []
