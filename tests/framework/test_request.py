"""Tests for Batch and breakdown accounting."""

import numpy as np
import pytest

from repro.framework.request import Batch, ShareMode
from repro.workloads.models import get_model


def make_batch(arrivals=(0.0, 0.1, 0.2)):
    arr = np.asarray(arrivals, dtype=float)
    return Batch(
        model=get_model("resnet50"),
        arrivals=arr,
        dispatched_at=float(arr[-1]) if arr.size else 0.0,
    )


class TestBatch:
    def test_empty_arrivals_rejected(self):
        with pytest.raises(ValueError):
            make_batch(arrivals=())

    def test_size_and_arrival_accessors(self):
        b = make_batch()
        assert b.size == 3
        assert b.first_arrival == 0.0

    def test_unique_ids(self):
        assert make_batch().batch_id != make_batch().batch_id

    def test_identity_equality(self):
        a, b = make_batch(), make_batch()
        assert a == a
        assert a != b

    def test_set_execution_checks_its_bounds(self):
        b = make_batch()
        b.set_execution(0.1, 0.4, 2.0, slowdown=1.5)
        assert (b.solo_time, b.fbr, b.mem_gb, b.slowdown) == (0.1, 0.4, 2.0, 1.5)
        for solo, fbr, mem, slowdown, what in (
            (0.0, 0.4, 2.0, 1.0, "solo_time"),
            (0.1, -0.1, 2.0, 1.0, "fbr"),
            (0.1, 0.4, -1.0, 1.0, "mem_gb"),
            (0.1, 0.4, 2.0, 0.9, "slowdown"),
        ):
            with pytest.raises(ValueError, match=what):
                b.set_execution(solo, fbr, mem, slowdown=slowdown)


class TestBreakdown:
    def test_share_modes(self):
        assert ShareMode.SPATIAL != ShareMode.TEMPORAL
