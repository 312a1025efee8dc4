"""An interrupted ``repro experiment`` resumes when the same command runs
again: the result cache holds every finished cell, so the rerun computes
only the cells the interrupt lost."""

import os

from repro.cli import main
from repro.experiments import runner as runner_mod
from repro.experiments.runner import run_cell as _real_run_cell


def _argv(cache_dir):
    return ["experiment", "fig5", "--duration", "5", "--repetitions", "1",
            "--executor", "serial", "--cache-dir", cache_dir]


def _patch_run_cell(monkeypatch, interrupt_on=None):
    """Count ``run_cell`` calls; raise KeyboardInterrupt on call
    ``interrupt_on`` (a Ctrl-C in the middle of that cell)."""
    calls = []

    def run_cell(spec):
        calls.append(spec)
        if len(calls) == interrupt_on:
            raise KeyboardInterrupt
        return _real_run_cell(spec)

    monkeypatch.setattr(runner_mod, "run_cell", run_cell)
    return calls


def test_interrupted_sweep_names_the_cache_and_rerun_computes_the_rest(
    capsys, monkeypatch, tmp_path
):
    cache_dir = str(tmp_path / "cache")
    calls = _patch_run_cell(monkeypatch, interrupt_on=3)
    assert main(_argv(cache_dir)) == 130
    out = capsys.readouterr().out
    assert len(calls) == 3
    assert cache_dir in out
    assert "run the same command again" in out

    calls = _patch_run_cell(monkeypatch)
    assert main(_argv(cache_dir)) == 0
    assert "cache: replayed 2/10 cells" in capsys.readouterr().out
    assert len(calls) == 8


def test_interrupt_without_cache_prints_no_cache_hint(
    capsys, monkeypatch, tmp_path
):
    cache_dir = str(tmp_path / "cache")
    _patch_run_cell(monkeypatch, interrupt_on=3)
    assert main(_argv(cache_dir) + ["--no-cache"]) == 130
    out = capsys.readouterr().out
    assert "interrupted" in out
    assert "cache" not in out
    assert "same command" not in out
    assert not os.path.exists(cache_dir)
