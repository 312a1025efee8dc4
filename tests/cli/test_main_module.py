"""Tests for ``python -m repro`` and the experiment CLI knobs."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


def _env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestMainModule:
    def test_module_invocation_exit_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, env=_env(),
        )
        assert proc.returncode == 0
        assert "schemes:" in proc.stdout

    def test_module_invocation_bad_args_exit_nonzero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bogus-command"],
            capture_output=True, text=True, env=_env(),
        )
        assert proc.returncode != 0

    def test_closed_stdout_pipe_stops_without_a_traceback(self, tmp_path):
        # The reader goes away before the first line, as ``| head`` does
        # once it has its lines: the command stops, exit 1, stderr empty.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "resnet50", "--trace",
             "poisson", "--duration", "20", "--seed", "3",
             "--trace-out", str(tmp_path / "run.jsonl")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
        )
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait() == 1
        assert stderr == b""

    def test_main_importable_and_callable(self, capsys):
        assert main(["list"]) == 0
        assert "experiments:" in capsys.readouterr().out


class TestExperimentRepetitions:
    def test_repetitions_flag_parsed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["experiment", "fig5", "--repetitions", "3"]
        )
        assert args.repetitions == 3

    @pytest.mark.parametrize("reps", [1, 2])
    def test_experiment_runs_with_repetitions(self, reps, capsys,
                                              tmp_path):
        rc = main([
            "experiment", "fig5", "--duration", "15",
            "--repetitions", str(reps), "--no-cache",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_extra_repetitions_reuse_per_cell_cache(self, capsys,
                                                    tmp_path):
        cache = str(tmp_path / "cache")
        base = ["experiment", "fig5", "--duration", "15",
                "--cache-dir", cache]
        assert main(base + ["--repetitions", "1"]) == 0
        capsys.readouterr()
        # Cells are cached per (config, seed): raising the repetition
        # count replays the first repetition's cells and computes only
        # the new seeds.
        assert main(base + ["--repetitions", "2"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines()
                    if l.startswith("cache: replayed"))
        replayed, total = line.split()[2].split("/")
        assert 0 < int(replayed) < int(total)
