"""Tests for the time-series state sampler and its bundle formats."""

import math

import numpy as np
import pytest

from repro.simulator.engine import Simulator
from repro.telemetry.timeseries import (
    TIMESERIES_SCHEMA,
    StateSampler,
    read_timeseries,
)


def started(s, horizon=10.0):
    """``s`` started on a simulator that never runs: the test takes the
    samples by hand."""
    s.start(Simulator(), horizon=horizon)
    return s


class TestProbeRegistration:
    def test_probe_must_be_callable(self):
        s = StateSampler(1.0)
        with pytest.raises(TypeError):
            s.probes(("x",), 42)

    def test_rebind_replaces_probe(self):
        s = StateSampler(1.0)
        s.probes(("x",), lambda: 1.0)
        s.probes(("x",), lambda: 2.0)
        started(s).sample(0.0)
        assert s.last("x") == 2.0

    def test_probe_after_start_rejected(self):
        s = started(StateSampler(1.0))
        with pytest.raises(RuntimeError):
            s.probes(("x",), lambda: 1.0)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            StateSampler(0.0)
        with pytest.raises(ValueError):
            StateSampler(-1.0)


class TestSampling:
    def test_rows_and_columns_align(self):
        s = StateSampler(1.0)
        ticks = iter(range(100))
        s.probes(("x",), lambda: float(next(ticks)))
        started(s, horizon=3.0)
        for t in range(3):
            s.sample(float(t))
        assert s.n_samples == 3
        np.testing.assert_array_equal(s.times(), [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(s.column("x"), [0.0, 1.0, 2.0])

    def test_raising_probe_disabled_not_fatal(self):
        s = StateSampler(1.0)
        calls = []

        def bad():
            calls.append(1)
            raise RuntimeError("gauge exploded")

        s.probes(("bad",), bad)
        s.probes(("good",), lambda: 1.0)
        started(s)
        s.sample(0.0)
        s.sample(1.0)
        # Disabled after the first failure: called exactly once.
        assert len(calls) == 1
        assert math.isnan(s.column("bad")[0])
        assert math.isnan(s.column("bad")[1])
        assert "gauge exploded" in s.meta["probe_errors"]["bad"]
        # The healthy probe keeps sampling.
        np.testing.assert_array_equal(s.column("good"), [1.0, 1.0])

    def test_observer_receives_each_row(self):
        s = StateSampler(1.0)
        s.probes(("x",), lambda: 5.0)
        rows = []
        s.observers.append(lambda now, row: rows.append((now, dict(row))))
        started(s).sample(2.0)
        assert rows == [(2.0, {"t": 2.0, "x": 5.0})]

    def test_last_before_first_sample_is_nan(self):
        s = StateSampler(1.0)
        s.probes(("x",), lambda: 1.0)
        assert math.isnan(s.last("x"))


class TestReadTimeColumns:
    def sampler(self, calls):
        s = StateSampler(1.0)
        s.probes(("x",), lambda: 1.0)

        def reader(times):
            calls.append(times.tolist())
            return times * 10, times + 1

        s.read_time_probes(("ten", "next"), reader)
        s.probes(("y",), lambda: 2.0)
        return started(s)

    def test_filled_in_one_call_when_read(self):
        calls = []
        s = self.sampler(calls)
        for t in (1.0, 2.0, 3.0):
            s.sample(t)
        assert calls == []  # a tick stores only its time
        assert s.probe_names() == ["x", "ten", "next", "y"]
        np.testing.assert_array_equal(s.column("ten"), [10.0, 20.0, 30.0])
        np.testing.assert_array_equal(s.column("next"), [2.0, 3.0, 4.0])
        s.sample(4.0)
        assert s.last("ten") == 40.0
        assert calls == [[1.0, 2.0, 3.0], [4.0]]

    def test_observer_sees_the_row_filled(self):
        calls, rows = [], []
        s = self.sampler(calls)
        s.observers.append(lambda now, row: rows.append(dict(row)))
        s.sample(2.0)
        assert rows == [{"t": 2.0, "x": 1.0, "ten": 20.0, "next": 3.0,
                         "y": 2.0}]
        assert calls == [[2.0]]

    def test_raising_reader_leaves_nan(self):
        s = StateSampler(1.0)
        s.read_time_probes(("bad",), lambda times: 1 / 0)
        s.probes(("good",), lambda: 1.0)
        started(s)
        s.sample(0.0)
        assert math.isnan(s.column("bad")[0])
        s.sample(1.0)
        assert np.isnan(s.column("bad")).all()
        np.testing.assert_array_equal(s.column("good"), [1.0, 1.0])
        assert "ZeroDivisionError" in s.meta["probe_errors"]["bad"]


class TestSimulatorIntegration:
    def test_samples_on_interval_until_horizon(self):
        sim = Simulator()
        s = StateSampler(0.5)
        s.probes(("t2",), lambda: sim.now * 2)
        s.start(sim, horizon=2.0)
        sim.run()
        np.testing.assert_allclose(s.times(), [0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(s.column("t2"), [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("interval, horizon", [
        (0.5, 330.0),  # a multiple: the pinned faults run's 660 ticks
        (1.0, 20.0),
        (0.3, 10.0),   # not multiples, and 0.3 accumulates in float
        (0.7, 2.0),
        (0.25, 1.1),
    ])
    def test_table_holds_every_tick_the_clock_fires(self, interval, horizon):
        sim = Simulator()
        ticks = []
        sim.every(interval, lambda: ticks.append(sim.now), until=horizon)
        s = StateSampler(interval)
        s.probes(("t",), lambda: sim.now)
        s.start(sim, horizon)
        sim.run()
        assert ticks and ticks[-1] <= horizon
        assert s.n_samples == len(ticks) <= math.ceil(horizon / interval) + 1
        assert s.times().tolist() == ticks
        assert s.column("t").tolist() == ticks

    def test_interval_longer_than_run_yields_empty_bundle(self, tmp_path):
        sim = Simulator()
        s = StateSampler(10.0)
        s.probes(("x",), lambda: 1.0)
        s.start(sim, horizon=2.0)  # first sample would land at t=10 > 2
        sim.run()
        assert s.n_samples == 0
        path = str(tmp_path / "empty.jsonl")
        s.save(path)
        data = read_timeseries(path)
        assert data.n_samples == 0 and "x" in data.names()

    def test_zero_horizon_yields_empty_bundle(self):
        sim = Simulator()
        s = StateSampler(1.0)
        s.probes(("x",), lambda: 1.0)
        s.start(sim, horizon=0.0)
        sim.run()
        assert s.n_samples == 0

    def test_double_start_rejected(self):
        sim = Simulator()
        s = StateSampler(1.0)
        s.start(sim, horizon=5.0)
        with pytest.raises(RuntimeError):
            s.start(sim, horizon=5.0)


class TestExportImport:
    @pytest.fixture()
    def sampler(self):
        s = StateSampler(1.0, meta={"scheme": "paldia"})
        s.probes(("a",), lambda: 1.5)
        nan_once = iter([math.nan, 2.0, 3.0])
        s.probes(("b",), lambda: next(nan_once))
        started(s)
        for t in range(3):
            s.sample(float(t))
        return s

    def test_npz_round_trip(self, sampler, tmp_path):
        path = str(tmp_path / "ts.npz")
        assert sampler.save(path) == 2
        data = read_timeseries(path)
        assert data.meta["scheme"] == "paldia"
        assert data.meta["schema"] == TIMESERIES_SCHEMA
        np.testing.assert_array_equal(data.times, sampler.times())
        np.testing.assert_array_equal(data.column("a"), sampler.column("a"))
        assert math.isnan(data.column("b")[0])

    def test_jsonl_round_trip_preserves_nan(self, sampler, tmp_path):
        path = str(tmp_path / "ts.jsonl")
        assert sampler.save(path) == 2
        data = read_timeseries(path)
        col = data.column("b")
        assert math.isnan(col[0]) and col[1] == 2.0 and col[2] == 3.0

    def test_both_formats_agree(self, sampler, tmp_path):
        p1, p2 = str(tmp_path / "ts.npz"), str(tmp_path / "ts.jsonl")
        sampler.save(p1)
        sampler.save(p2)
        d1, d2 = read_timeseries(p1), read_timeseries(p2)
        assert sorted(d1.names()) == sorted(d2.names())
        np.testing.assert_array_equal(d1.times, d2.times)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record type"):
            read_timeseries(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            read_timeseries(str(path))

    @pytest.mark.parametrize("suffix", [".npz", ".jsonl"])
    def test_foreign_schema_rejected_in_both_formats(self, tmp_path, suffix):
        s = StateSampler(1.0, meta={"schema": "repro.timeseries/2"})
        s.probes(("a",), lambda: 1.0)
        started(s).sample(0.0)
        path = str(tmp_path / f"ts{suffix}")
        s.save(path)
        with pytest.raises(ValueError, match="unsupported time-series schema"):
            read_timeseries(path)
