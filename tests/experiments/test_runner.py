"""Tests for the experiment matrix runner."""

from functools import partial

import pytest

from repro.experiments.executors import worker_count
from repro.experiments.runner import (
    CellSpec,
    run_cell,
    run_matrix,
)
from repro.workloads.traces import constant_trace


def _const_trace(model, seed):
    return constant_trace(10.0, 30.0)


class TestRunCell:
    def test_single_cell(self):
        spec = CellSpec(
            scheme="paldia", model_name="resnet50", seed=1,
            trace_factory=_const_trace,
        )
        result = run_cell(spec)
        assert result.scheme == "paldia"
        assert result.model == "resnet50"
        assert result.offered_requests == 300

    def test_metrics_dropped_by_default(self):
        spec = CellSpec("paldia", "resnet50", 1, _const_trace)
        assert run_cell(spec).metrics is None

    def test_metrics_kept_on_request(self):
        spec = CellSpec("paldia", "resnet50", 1, _const_trace, keep_metrics=True)
        assert run_cell(spec).metrics is not None

    def test_catalog_restriction(self):
        spec = CellSpec(
            "molecule_P", "resnet50", 1, _const_trace,
            catalog_names=("p3.2xlarge",),
        )
        result = run_cell(spec)
        assert set(result.time_by_spec) == {"p3.2xlarge"}

    def test_seed_reproducibility(self):
        spec = CellSpec("paldia", "resnet50", 3, _const_trace)
        a, b = run_cell(spec), run_cell(spec)
        assert a.slo_compliance == b.slo_compliance
        assert a.total_cost == b.total_cost


class TestRunMatrix:
    def test_matrix_covers_cells(self):
        m = run_matrix(
            schemes=("paldia", "molecule_$"),
            model_names=["resnet50"],
            trace_factory=_const_trace,
            repetitions=2,
            executor="serial",
        )
        assert len(m.results) == 4
        assert set(m.schemes()) == {"paldia", "molecule_$"}
        assert m.models() == ["resnet50"]

    def test_summary_aggregates(self):
        m = run_matrix(
            schemes=("paldia",),
            model_names=["resnet50"],
            trace_factory=_const_trace,
            repetitions=2,
            executor="serial",
        )
        s = m.summary("paldia", "resnet50")
        assert s.n_runs == 2
        assert 0 <= s.slo_compliance_percent <= 100

    def test_missing_cell_raises(self):
        m = run_matrix(
            schemes=("paldia",), model_names=["resnet50"],
            trace_factory=_const_trace, repetitions=1, executor="serial",
        )
        with pytest.raises(KeyError):
            m.summary("molecule_$", "resnet50")

    def test_parallel_matches_serial(self):
        kw = dict(
            schemes=("paldia",), model_names=["resnet50"],
            trace_factory=_const_trace, repetitions=2,
        )
        serial = run_matrix(executor="serial", **kw)
        par = run_matrix(executor="pool", **kw)
        a = serial.summary("paldia", "resnet50")
        b = par.summary("paldia", "resnet50")
        assert a.slo_compliance_percent == pytest.approx(b.slo_compliance_percent)
        assert a.cost_dollars == pytest.approx(b.cost_dollars)


class TestWorkerCount:
    """``REPRO_MAX_WORKERS`` caps the pool; CI's 2-core runners must
    never be oversubscribed."""

    def test_leaves_one_core_for_parent(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert worker_count(n_tasks=100, n_cpus=8) == 7
        assert worker_count(n_tasks=100, n_cpus=2) == 1

    def test_never_exceeds_tasks(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert worker_count(n_tasks=3, n_cpus=16) == 3

    def test_single_core_machine(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert worker_count(n_tasks=10, n_cpus=1) == 1

    def test_env_cap_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        assert worker_count(n_tasks=100, n_cpus=16) == 2

    def test_env_cap_still_bounded_by_tasks(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "8")
        assert worker_count(n_tasks=3, n_cpus=16) == 3

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "lots")
        assert worker_count(n_tasks=100, n_cpus=4) == 3

    def test_nonpositive_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
        assert worker_count(n_tasks=100, n_cpus=4) == 3

    def test_negative_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "-3")
        assert worker_count(n_tasks=100, n_cpus=4) == 3

    def test_env_whitespace_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "   ")
        assert worker_count(n_tasks=100, n_cpus=4) == 3

    def test_float_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2.5")
        assert worker_count(n_tasks=100, n_cpus=4) == 3

    def test_env_cap_larger_than_cells(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "64")
        assert worker_count(n_tasks=5, n_cpus=4) == 5
