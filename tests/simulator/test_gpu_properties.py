"""Property-based tests on the GPU device's conservation invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.framework.request import Batch, ShareMode
from repro.simulator.engine import Simulator
from repro.simulator.gpu import GPUDevice
from repro.simulator.interference import InterferenceModel
from repro.hardware.catalog import default_catalog
from repro.workloads.models import get_model

V100 = default_catalog().get("p3.2xlarge")
MODEL = get_model("resnet50")


def run_workload(specs):
    """specs: list of (delay, solo, fbr, mode_is_spatial)."""
    sim = Simulator()
    dev = GPUDevice(
        sim, V100, InterferenceModel(sub_knee_slope=0.0),
        np.random.default_rng(0), exec_noise_sigma=0.0,
    )
    done = []
    for i, (delay, solo, fbr, spatial) in enumerate(specs):
        mode = ShareMode.SPATIAL if spatial else ShareMode.TEMPORAL
        batch = Batch(model=MODEL, arrivals=np.array([delay]),
                      dispatched_at=delay, mode=mode)
        batch.set_execution(solo, fbr, 0.5,
                            on_complete=lambda b, i=i: done.append(i))
        sim.schedule_at(delay, lambda b=batch: dev.submit(b))
    sim.run()
    return sim, dev, done


workload_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.95),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


class TestConservation:
    @given(workload_strategy)
    @settings(max_examples=40, deadline=None)
    def test_every_job_completes_exactly_once(self, specs):
        _, dev, done = run_workload(specs)
        assert sorted(done) == list(range(len(specs)))
        assert dev.idle

    @given(workload_strategy)
    @settings(max_examples=40, deadline=None)
    def test_memory_fully_released(self, specs):
        _, dev, _ = run_workload(specs)
        assert dev.mem_free_gb == pytest.approx(V100.memory_gb)

    @given(workload_strategy)
    @settings(max_examples=40, deadline=None)
    def test_no_job_faster_than_solo(self, specs):
        sim = Simulator()
        dev = GPUDevice(
            sim, V100, InterferenceModel(sub_knee_slope=0.0),
            np.random.default_rng(0), exec_noise_sigma=0.0,
        )
        batches = []
        for delay, solo, fbr, spatial in specs:
            mode = ShareMode.SPATIAL if spatial else ShareMode.TEMPORAL
            batch = Batch(model=MODEL, arrivals=np.array([delay]),
                          dispatched_at=delay, mode=mode)
            batch.set_execution(solo, fbr, 0.5)
            batches.append(batch)
            sim.schedule_at(delay, lambda b=batch: dev.submit(b))
        sim.run()
        for batch in batches:
            assert batch.completed_at is not None
            exec_time = batch.completed_at - batch.started_at
            assert exec_time >= batch.solo_time - 1e-9

    @given(workload_strategy)
    @settings(max_examples=30, deadline=None)
    def test_busy_time_bounded_by_makespan(self, specs):
        sim, dev, _ = run_workload(specs)
        assert dev.busy_seconds <= sim.now + 1e-9


#: One step of a device's life: a submit (FBR, spatial?, solo time), a
#: clock advance (which completes batches), an OOM eviction or a failure.
#: FBRs are hundredths, which binary floats mostly cannot hold exactly,
#: so a running total updated in place drifts from the fresh sum.
step_strategy = st.one_of(
    st.tuples(st.just("submit"),
              st.integers(min_value=0, max_value=95).map(lambda k: k / 100),
              st.booleans(), st.floats(min_value=0.01, max_value=0.5)),
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=0.5)),
    st.tuples(st.just("evict_one")),
    st.tuples(st.just("evict_all")),
)


class TestHeldFBR:
    @given(st.lists(step_strategy, min_size=1, max_size=40))
    @example([("submit", 0.1, True, 0.1), ("submit", 0.2, True, 0.4),
              ("advance", 0.3)])
    @example([("submit", 0.01, True, 0.4), ("submit", 0.1, False, 0.4),
              ("submit", 0.02, True, 0.4), ("evict_one",)])
    @settings(max_examples=150, deadline=None)
    def test_held_total_fbr_is_the_fresh_sum(self, steps):
        """The device holds the resident set's FBR; after every step it
        has the bits of the sum over the resident set, as computed anew."""
        sim = Simulator()
        dev = GPUDevice(
            sim, V100, InterferenceModel(sub_knee_slope=0.0),
            np.random.default_rng(0), exec_noise_sigma=0.0,
        )
        for step in steps:
            kind = step[0]
            if kind == "submit":
                _, fbr, spatial, solo = step
                mode = ShareMode.SPATIAL if spatial else ShareMode.TEMPORAL
                batch = Batch(model=MODEL, arrivals=np.array([sim.now]),
                              dispatched_at=sim.now, mode=mode)
                batch.set_execution(solo, fbr, 1.5)
                dev.submit(batch)
            elif kind == "advance":
                sim.run(until=sim.now + step[1])
            elif kind == "evict_one":
                dev.evict_one()
            else:
                dev.evict_all()
            assert dev.total_fbr == float(sum(j.fbr for j in dev._active))
