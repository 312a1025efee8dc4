"""Tests for the gateway batcher."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.framework.batching import WindowTable, carve_sizes


def sizes(table: WindowTable) -> list[int]:
    return (table.ends - table.starts).tolist()


class TestWindowGroups:
    """Window formation, read from the ``WindowTable`` columns."""

    def test_empty_arrivals(self):
        assert len(WindowTable.plan(np.array([]), 0.1)) == 0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            WindowTable.plan(np.array([0.0]), 0.0)

    def test_requests_grouped_by_window(self):
        arr = np.array([0.01, 0.05, 0.12, 0.13])
        table = WindowTable.plan(arr, 0.1)
        assert sizes(table) == [2, 2]
        assert table.dispatch_at[0] == pytest.approx(0.1)
        assert table.dispatch_at[1] == pytest.approx(0.2)

    def test_full_batches_dispatch_early(self):
        arr = np.linspace(0.0, 0.09, 10)
        table = WindowTable.plan(arr, 0.1, max_batch=4)
        assert sizes(table) == [4, 4, 2]
        # the first full chunk dispatches when its last request arrived
        assert table.dispatch_at[0] == pytest.approx(arr[3])

    def test_dispatch_never_before_last_arrival(self):
        rng = np.random.default_rng(0)
        arr = np.sort(rng.random(200) * 5.0)
        table = WindowTable.plan(arr, 0.075, max_batch=16)
        last = table.arrivals[table.ends - 1]
        assert np.all(table.dispatch_at >= last - 1e-12)

    def test_windows_sorted_by_dispatch(self):
        rng = np.random.default_rng(1)
        arr = np.sort(rng.random(500) * 10.0)
        table = WindowTable.plan(arr, 0.075, max_batch=16)
        assert np.all(np.diff(table.dispatch_at) >= 0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=0, max_size=300),
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_conservation(self, times, window, max_batch):
        arr = np.sort(np.asarray(times, dtype=float))
        table = WindowTable.plan(arr, window, max_batch)
        assert sum(sizes(table)) == arr.size
        if len(table):
            merged = np.concatenate([
                table.arrivals[s:e]
                for s, e in zip(table.starts.tolist(), table.ends.tolist())
            ])
            assert np.array_equal(np.sort(merged), arr)


class TestCarveSizes:
    def test_exact_multiples(self):
        assert carve_sizes(32, 16) == [16, 16]

    def test_remainder_in_last(self):
        assert carve_sizes(20, 16) == [16, 4]

    def test_zero(self):
        assert carve_sizes(0, 16) == []

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            carve_sizes(-1, 16)
        with pytest.raises(ValueError):
            carve_sizes(5, 0)

    @given(st.integers(min_value=0, max_value=10000), st.integers(min_value=1, max_value=256))
    def test_conservation_and_bounds(self, n, bs):
        sizes = carve_sizes(n, bs)
        assert sum(sizes) == n
        assert all(1 <= s <= bs for s in sizes)
