"""Tests for ``repro profile`` and ``repro run --self-profile``."""

import json

import pytest

from repro.cli import build_parser, main
from repro.telemetry.selfprof import SELFPROF_SCHEMA


SMALL = ["--trace", "poisson", "--duration", "8", "--seed", "0"]


class TestParser:
    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.model == "resnet50"
        assert args.scheme == "paldia"
        assert args.duration == 60.0
        assert args.diff is None

    def test_diff_takes_two_files(self):
        args = build_parser().parse_args(
            ["profile", "--diff", "a.json", "b.json"]
        )
        assert args.diff == ["a.json", "b.json"]

    def test_run_profile_flags(self):
        args = build_parser().parse_args(
            ["run", "resnet50", "--profile-out", "p.json"]
        )
        assert args.profile_out == "p.json"
        assert args.self_profile is False


class TestProfileCommand:
    def test_prints_phase_tree_and_attribution(self, capsys):
        assert main(["profile", "resnet50"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "self-profile:" in out
        assert "select.choose_best_HW" in out
        assert "batch.plan" in out
        assert "wall clock" in out
        assert "top subsystems" in out

    def test_exports_all_three_formats(self, capsys, tmp_path):
        json_out = str(tmp_path / "prof.json")
        scope_out = str(tmp_path / "prof.speedscope.json")
        collapsed_out = str(tmp_path / "prof.collapsed.txt")
        assert main(
            ["profile", "resnet50", *SMALL,
             "--json", json_out,
             "--speedscope", scope_out,
             "--collapsed", collapsed_out]
        ) == 0

        with open(json_out) as fh:
            prof = json.load(fh)
        assert prof["schema"] == SELFPROF_SCHEMA
        assert prof["meta"]["scheme"] == "paldia"
        assert prof["total_seconds"] > 0

        with open(scope_out) as fh:
            scope = json.load(fh)
        assert scope["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        assert scope["profiles"][0]["samples"]

        with open(collapsed_out) as fh:
            lines = fh.read().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0

    def test_diff_mode(self, capsys, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        assert main(["profile", "resnet50", *SMALL, "--json", a]) == 0
        assert main(
            ["profile", "resnet50", "--trace", "poisson",
             "--duration", "8", "--seed", "1", "--json", b]
        ) == 0
        capsys.readouterr()
        assert main(["profile", "--diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "profile diff" in out
        assert "delta_ms" in out

    def test_diff_missing_file(self, capsys, tmp_path):
        a = str(tmp_path / "a.json")
        with open(a, "w") as fh:
            json.dump({"schema": SELFPROF_SCHEMA, "root": {},
                       "meta": {}, "total_seconds": 0.0}, fh)
        assert main(
            ["profile", "--diff", a, str(tmp_path / "missing.json")]
        ) == 1

    def test_diff_rejects_non_profile(self, capsys, tmp_path):
        a = str(tmp_path / "a.json")
        with open(a, "w") as fh:
            json.dump({"schema": "nope"}, fh)
        assert main(["profile", "--diff", a, a]) == 1

    @pytest.mark.parametrize("profile", [
        {"schema": SELFPROF_SCHEMA, "meta": {}, "total_seconds": 1.0},
        {"schema": SELFPROF_SCHEMA, "meta": {}, "total_seconds": 1.0,
         "root": {"name": "<run>", "children": [
             {"name": "run", "count": 1, "children": []}]}},
    ], ids=["no_root", "node_without_seconds"])
    def test_diff_rejects_malformed_profile(self, capsys, tmp_path, profile):
        a = str(tmp_path / "a.json")
        with open(a, "w") as fh:
            json.dump(profile, fh)
        assert main(["profile", "--diff", a, a]) == 1
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert "not a valid self-profile" in text
        assert "Traceback" not in text


class TestRunSelfProfile:
    def test_profile_out_standalone(self, capsys, tmp_path):
        # Satellite contract: --profile-out works without any other
        # telemetry flag (no tracer constructed at all).
        out_path = str(tmp_path / "run-prof.json")
        assert main(
            ["run", "resnet50", *SMALL, "--profile-out", out_path]
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry" not in out  # no tracer summary block
        with open(out_path) as fh:
            prof = json.load(fh)
        assert prof["schema"] == SELFPROF_SCHEMA
        assert prof["total_seconds"] > 0

    def test_self_profile_prints_tree(self, capsys):
        assert main(["run", "resnet50", *SMALL, "--self-profile"]) == 0
        out = capsys.readouterr().out
        assert "run result" in out
        assert "self-profile:" in out

    def test_ledger_records_top_phase(self, capsys, tmp_path):
        db = str(tmp_path / "ledger.sqlite")
        assert main(
            ["run", "resnet50", *SMALL, "--self-profile", "--ledger", db]
        ) == 0
        capsys.readouterr()
        assert main(["runs", "show", "1", "--ledger", db]) == 0
        out = capsys.readouterr().out
        assert "wall clock" in out
        assert "top phase" in out

    def test_ledger_without_profile_leaves_top_phase_empty(
        self, capsys, tmp_path
    ):
        db = str(tmp_path / "ledger.sqlite")
        assert main(["run", "resnet50", *SMALL, "--ledger", db]) == 0
        capsys.readouterr()
        assert main(["runs", "show", "1", "--ledger", db]) == 0
        out = capsys.readouterr().out
        assert "wall clock" in out  # wall_seconds is always measured
        assert "top phase" not in out
