"""Tests for the persistent experiment result cache."""

import os
import pickle

import pytest

from repro.experiments.cache import (
    ResultCache,
    cell_key,
    get_active_cache,
    set_active_cache,
    source_salt,
)
from repro.experiments.runner import CellSpec, run_matrix
from repro.framework.system import RunConfig
from repro.workloads.traces import constant_trace


def _const_trace(model, seed):
    return constant_trace(10.0, 30.0)


def _spec(**overrides):
    kw = dict(
        scheme="paldia", model_name="resnet50", seed=1,
        trace_factory=_const_trace,
    )
    kw.update(overrides)
    return CellSpec(**kw)


class TestCellKey:
    def test_stable_across_calls(self):
        assert cell_key(_spec()) == cell_key(_spec())

    def test_every_field_is_load_bearing(self):
        base = cell_key(_spec())
        assert cell_key(_spec(seed=2)) != base
        assert cell_key(_spec(scheme="molecule_$")) != base
        assert cell_key(_spec(slo_seconds=0.4)) != base
        assert cell_key(_spec(config=RunConfig(seed=9))) != base
        assert cell_key(_spec(catalog_names=("p3.2xlarge",))) != base

    def test_salt_changes_key(self):
        assert cell_key(_spec(), salt="a") != cell_key(_spec(), salt="b")

    def test_closure_factory_is_uncacheable(self):
        captured = [1, 2, 3]

        def closure_factory(model, seed):
            return constant_trace(float(len(captured)), 30.0)

        assert cell_key(_spec(trace_factory=closure_factory)) is None

    def test_source_salt_is_stable_and_short(self):
        assert source_salt() == source_salt()
        assert len(source_salt()) == 20


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        assert cache.get(spec) is None
        assert cache.put(spec, {"payload": 42})
        assert cache.get(spec) == {"payload": 42}
        assert cache.stats == {
            "hits": 1, "misses": 1, "stores": 1, "corrupt_entries": 0,
            "io_errors": 0,
        }

    def test_salt_invalidates_entries(self, tmp_path):
        old = ResultCache(str(tmp_path), salt="code-v1")
        old.put(_spec(), "stale")
        fresh = ResultCache(str(tmp_path), salt="code-v2")
        assert fresh.get(_spec()) is None  # a code change is a miss
        same = ResultCache(str(tmp_path), salt="code-v1")
        assert same.get(_spec()) == "stale"

    def test_corrupted_entry_deleted_and_recomputed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        cache.put(spec, "good")
        path = cache._path(cache.key(spec))
        with open(path, "wb") as fh:
            fh.write(b"\x80garbage not a pickle")
        assert cache.get(spec) is None
        assert not os.path.exists(path)  # dropped, not left to re-fail
        assert cache.n_corrupt == 1
        cache.put(spec, "recomputed")
        assert cache.get(spec) == "recomputed"

    def test_wrong_schema_is_corruption(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        cache.put(spec, "good")
        path = cache._path(cache.key(spec))
        with open(path, "wb") as fh:
            pickle.dump({"schema": 999, "result": "future"}, fh)
        assert cache.get(spec) is None
        assert cache.n_corrupt == 1

    def test_uncacheable_spec_never_stored(self, tmp_path):
        captured = 3

        def closure_factory(model, seed):
            return constant_trace(float(captured), 30.0)

        cache = ResultCache(str(tmp_path))
        spec = _spec(trace_factory=closure_factory)
        assert not cache.put(spec, "x")
        assert cache.get(spec) is None
        assert cache.n_stores == 0


class TestActiveCache:
    def test_set_returns_previous(self, tmp_path):
        a = ResultCache(str(tmp_path / "a"))
        b = ResultCache(str(tmp_path / "b"))
        assert set_active_cache(a) is None
        try:
            assert set_active_cache(b) is a
            assert get_active_cache() is b
        finally:
            set_active_cache(None)

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = get_active_cache()
        assert cache is not None
        assert cache.cache_dir == str(tmp_path / "envcache")

    def test_no_cache_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert get_active_cache() is None


class TestMatrixCaching:
    MATRIX = dict(
        schemes=("paldia",), model_names=["resnet50"],
        trace_factory=_const_trace, repetitions=2, executor="serial",
    )

    def test_second_run_replays_every_cell(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = run_matrix(cache=cache, **self.MATRIX)
        assert (first.cache_hits, first.cache_misses) == (0, 2)
        second = run_matrix(cache=cache, **self.MATRIX)
        assert (second.cache_hits, second.cache_misses) == (2, 0)
        for a, b in zip(first.results, second.results):
            assert a.slo_compliance == b.slo_compliance
            assert a.total_cost == b.total_cost
            assert a.scheme == b.scheme

    def test_cache_false_bypasses_active_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        previous = set_active_cache(cache)
        try:
            m = run_matrix(cache=False, **self.MATRIX)
        finally:
            set_active_cache(previous)
        assert (m.cache_hits, m.cache_misses) == (0, 0)
        assert cache.n_stores == 0

    def test_partial_hit_fills_only_missing_cells(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        small = run_matrix(cache=cache, **dict(self.MATRIX, repetitions=1))
        m = run_matrix(cache=cache, **self.MATRIX)
        # rep 0 (seed 1) was cached by the 1-repetition run; rep 1 is new.
        assert (m.cache_hits, m.cache_misses) == (1, 1)
        assert m.results[0].total_cost == small.results[0].total_cost
        assert all(r is not None for r in m.results)


class TestHardening:
    """Disk trouble degrades caching; it never aborts an experiment."""

    def test_store_failure_warns_once_and_continues(
        self, tmp_path, monkeypatch, caplog
    ):
        import logging
        import tempfile

        cache = ResultCache(str(tmp_path))

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", disk_full)
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert cache.put(_spec(), "a") is False
            assert cache.put(_spec(seed=2), "b") is False
        assert cache.n_io_errors == 2
        assert cache.n_stores == 0
        warned = [r for r in caplog.records
                  if "result cache cannot" in r.message]
        assert len(warned) == 1  # warn once, then stay quiet

    def test_unreadable_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        assert cache.put(spec, "payload")
        path = cache._path(cache.key(spec))
        os.remove(path)
        os.makedirs(path)  # open(path, "rb") now raises IsADirectoryError
        assert cache.get(spec) is None
        assert cache.n_io_errors == 1
        assert cache.stats["io_errors"] == 1

    def test_concurrent_writers_last_replace_wins(self, tmp_path):
        a = ResultCache(str(tmp_path))
        b = ResultCache(str(tmp_path))
        spec = _spec()
        assert a.put(spec, "first")
        assert b.put(spec, "second")  # atomic replace, no torn entry
        assert ResultCache(str(tmp_path)).get(spec) == "second"
