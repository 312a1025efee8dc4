"""Tests for the GPU device model (MPS processor sharing + temporal FIFO)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.framework.request import Batch, ShareMode
from repro.simulator.cluster import LeaseRecord
from repro.simulator.engine import Simulator
from repro.simulator.gpu import GPUDevice
from repro.simulator.interference import InterferenceModel
from repro.simulator.power import bill
from repro.workloads.models import get_model


def make_device(sim, spec, alpha=1.25, noise=0.0):
    interference = InterferenceModel(alpha=alpha, sub_knee_slope=0.0)
    return GPUDevice(sim, spec, interference, np.random.default_rng(1), exec_noise_sigma=noise)


def make_batch(model_name="resnet50", n=8, t0=0.0, solo=0.1, fbr=0.4,
               mem=1.0, mode=ShareMode.SPATIAL, done=None):
    model = get_model(model_name)
    batch = Batch(model=model, arrivals=np.linspace(t0, t0 + 0.01, n),
                  dispatched_at=t0, mode=mode)
    batch.set_execution(solo, fbr, mem, on_complete=done)
    return batch


class TestSoloExecution:
    def test_single_spatial_job_runs_in_solo_time(self, sim, v100):
        dev = make_device(sim, v100)
        done = []
        batch = make_batch(done=lambda b: done.append(sim.now))
        dev.submit(batch)
        sim.run()
        assert done == [pytest.approx(0.1)]

    def test_single_temporal_job_runs_in_solo_time(self, sim, v100):
        dev = make_device(sim, v100)
        done = []
        batch = make_batch(mode=ShareMode.TEMPORAL, done=lambda b: done.append(sim.now))
        dev.submit(batch)
        sim.run()
        assert done == [pytest.approx(0.1)]

    def test_batch_breakdown_records_exec_solo(self, sim, v100):
        dev = make_device(sim, v100)
        batch = make_batch()
        dev.submit(batch)
        sim.run()
        assert batch.exec_solo == pytest.approx(0.1)
        assert batch.interference_extra == pytest.approx(0.0, abs=1e-9)

    def test_completion_marks_hardware(self, sim, v100):
        dev = make_device(sim, v100)
        batch = make_batch()
        dev.submit(batch)
        sim.run()
        assert batch.hardware_name == v100.name
        assert batch.completed_at == pytest.approx(0.1)

    def test_cpu_spec_rejected(self, sim, cpu_node):
        with pytest.raises(ValueError):
            make_device(sim, cpu_node)


class TestSpatialCoLocation:
    def test_below_knee_colocation_is_parallel(self, sim, v100):
        dev = make_device(sim, v100)
        done = []
        for _ in range(2):
            dev.submit(make_batch(fbr=0.3, done=lambda b: done.append(sim.now)))
        sim.run()
        # total fbr 0.6 < knee: both finish in ~solo time
        assert all(t == pytest.approx(0.1, rel=1e-6) for t in done)

    def test_past_knee_colocation_slows_everyone(self, sim, v100):
        dev = make_device(sim, v100)
        done = []
        for _ in range(2):
            dev.submit(make_batch(fbr=0.8, done=lambda b: done.append(sim.now)))
        sim.run()
        expected = 0.1 * (1.6**1.25)
        assert all(t == pytest.approx(expected, rel=1e-6) for t in done)

    def test_interference_extra_recorded(self, sim, v100):
        dev = make_device(sim, v100)
        batches = [make_batch(fbr=0.8) for _ in range(2)]
        for b in batches:
            dev.submit(b)
        sim.run()
        for b in batches:
            assert b.interference_extra > 0

    def test_staggered_arrival_processor_sharing(self, sim, v100):
        dev = make_device(sim, v100)
        done = {}
        dev.submit(make_batch(fbr=0.8, solo=0.1, done=lambda b: done.setdefault("a", sim.now)))
        sim.schedule(0.05, lambda: dev.submit(
            make_batch(fbr=0.8, solo=0.1, done=lambda b: done.setdefault("b", sim.now))
        ))
        sim.run()
        # First batch runs alone for 0.05s (half its work), then shares.
        slow = 1.6**1.25
        assert done["a"] == pytest.approx(0.05 + 0.05 * slow, rel=1e-6)
        # Second finishes later than the first.
        assert done["b"] > done["a"]

    def test_total_fbr_tracks_active_set(self, sim, v100):
        dev = make_device(sim, v100)
        dev.submit(make_batch(fbr=0.3))
        dev.submit(make_batch(fbr=0.2))
        assert dev.total_fbr == pytest.approx(0.5)
        sim.run()
        assert dev.total_fbr == 0.0


class TestMemoryBound:
    def test_spatial_job_waits_when_memory_full(self, sim, v100):
        dev = make_device(sim, v100)
        done = []
        big = v100.memory_gb  # fills the device
        dev.submit(make_batch(mem=big, solo=0.1, done=lambda b: done.append("first")))
        dev.submit(make_batch(mem=big, solo=0.1, done=lambda b: done.append("second")))
        assert dev.n_active == 1
        assert dev.queued_requests() == 8
        sim.run()
        assert done == ["first", "second"]

    def test_memory_pending_wait_attributed_to_interference(self, sim, v100):
        dev = make_device(sim, v100)
        big = v100.memory_gb
        b1 = make_batch(mem=big, solo=0.1)
        b2 = make_batch(mem=big, solo=0.1)
        dev.submit(b1)
        dev.submit(b2)
        sim.run()
        assert b2.interference_extra >= 0.1 - 1e-9

    def test_mem_free_accounting(self, sim, v100):
        dev = make_device(sim, v100)
        dev.submit(make_batch(mem=3.0))
        assert dev.mem_free_gb == pytest.approx(v100.memory_gb - 3.0)
        sim.run()
        assert dev.mem_free_gb == pytest.approx(v100.memory_gb)


class TestTemporalQueue:
    def test_fifo_order(self, sim, v100):
        dev = make_device(sim, v100)
        done = []
        for i in range(3):
            dev.submit(make_batch(mode=ShareMode.TEMPORAL, solo=0.1,
                                  done=lambda b, i=i: done.append((i, sim.now))))
        sim.run()
        assert [i for i, _ in done] == [0, 1, 2]
        times = [t for _, t in done]
        assert times == pytest.approx([0.1, 0.2, 0.3], rel=1e-6)

    def test_queue_delay_recorded_for_temporal(self, sim, v100):
        dev = make_device(sim, v100)
        batches = [make_batch(mode=ShareMode.TEMPORAL, solo=0.1) for _ in range(2)]
        for b in batches:
            dev.submit(b)
        sim.run()
        assert batches[0].queue_delay == pytest.approx(0.0, abs=1e-9)
        assert batches[1].queue_delay == pytest.approx(0.1, rel=1e-6)

    def test_temporal_waits_for_spatial_set_to_drain(self, sim, v100):
        dev = make_device(sim, v100)
        done = []
        dev.submit(make_batch(fbr=0.4, solo=0.1, done=lambda b: done.append("spatial")))
        dev.submit(make_batch(mode=ShareMode.TEMPORAL, solo=0.05,
                              done=lambda b: done.append("temporal")))
        sim.run()
        assert done == ["spatial", "temporal"]

    def test_spatial_can_join_running_temporal(self, sim, v100):
        dev = make_device(sim, v100)
        done = {}
        dev.submit(make_batch(mode=ShareMode.TEMPORAL, fbr=0.4, solo=0.1,
                              done=lambda b: done.setdefault("t", sim.now)))
        sim.schedule(0.02, lambda: dev.submit(
            make_batch(fbr=0.4, solo=0.05, done=lambda b: done.setdefault("s", sim.now))
        ))
        sim.run()
        # Aggregate fbr 0.8 < knee: both proceed at full rate.
        assert done["t"] == pytest.approx(0.1, rel=1e-6)
        assert done["s"] == pytest.approx(0.07, rel=1e-6)


class TestEviction:
    def test_evict_queued_returns_unstarted_jobs(self, sim, v100):
        dev = make_device(sim, v100)
        dev.submit(make_batch(mem=v100.memory_gb, solo=0.1))
        dev.submit(make_batch(mem=1.0, solo=0.1))  # memory-pending
        dev.submit(make_batch(mode=ShareMode.TEMPORAL, solo=0.1))
        evicted = dev.evict_queued()
        assert len(evicted) == 2
        assert dev.n_active == 1
        assert dev.queued_requests() == 0

    def test_evict_all_clears_device(self, sim, v100):
        dev = make_device(sim, v100)
        for _ in range(3):
            dev.submit(make_batch())
        evicted = dev.evict_all()
        assert len(evicted) == 3
        assert dev.idle
        sim.run()  # no completions fire

    def test_evicted_batch_restarts_afresh(self, sim, v100):
        """A batch evicted by a node failure loses its attempt: resubmitted,
        it gets a new start, its whole work back and a new submission
        time, and completes one full solo time after the restart."""
        dev = make_device(sim, v100)
        batch = make_batch(solo=0.1)
        dev.submit(batch)
        sim.run(until=0.04)
        assert batch.started_at == 0.0
        assert dev.evict_all() == [batch]
        assert (batch.started_at, batch.work) == (None, 0.0)
        restart = []

        def resubmit():
            dev.submit(batch)
            restart.append((batch.started_at, batch.work, batch.submitted_at))

        sim.schedule_at(0.5, resubmit)
        sim.run()
        assert restart == [(0.5, 0.1, 0.5)]
        assert batch.started_at == 0.5
        assert batch.completed_at == pytest.approx(0.6)
        assert batch.exec_solo == pytest.approx(0.1)

    def test_queued_requests_counts_requests_not_batches(self, sim, v100):
        dev = make_device(sim, v100)
        dev.submit(make_batch(n=4, mem=v100.memory_gb))
        dev.submit(make_batch(n=6, mode=ShareMode.TEMPORAL))
        assert dev.queued_requests() == 6


class TestAccounting:
    def test_busy_seconds_tracks_non_idle_time(self, sim, v100):
        dev = make_device(sim, v100)
        dev.submit(make_batch(solo=0.1))
        sim.run()
        sim.schedule(0.4, lambda: dev.submit(make_batch(solo=0.1)))
        sim.run()
        assert dev.busy_seconds == pytest.approx(0.2, rel=1e-6)
        # Utilization is the busy fraction of the node's lease.
        node = SimpleNamespace(spec=v100, device=dev)
        billed = bill([(node, LeaseRecord(v100, 0.0))], 0.6)
        assert billed.utilization_by_spec[v100.name] == pytest.approx(
            0.2 / 0.6, rel=1e-6
        )

    def test_jobs_completed_counter(self, sim, v100):
        dev = make_device(sim, v100)
        done = []
        for _ in range(4):
            dev.submit(make_batch(done=done.append))
        sim.run()
        assert len(done) == 4

    def test_contention_factor_inflates_work(self, sim, v100):
        dev = make_device(sim, v100)
        dev.contention_factor = 2.0
        done = []
        dev.submit(make_batch(solo=0.1, done=lambda b: done.append(sim.now)))
        sim.run()
        assert done == [pytest.approx(0.2, rel=1e-6)]

    def test_exec_noise_perturbs_work(self, sim, v100):
        interference = InterferenceModel(sub_knee_slope=0.0)
        dev = GPUDevice(sim, v100, interference, np.random.default_rng(3),
                        exec_noise_sigma=0.1)
        done = []
        dev.submit(make_batch(solo=0.1, done=lambda b: done.append(sim.now)))
        sim.run()
        assert done[0] != pytest.approx(0.1, abs=1e-6)
        assert 0.05 < done[0] < 0.2

    @pytest.mark.parametrize("seed", [0, 11])
    def test_block_drawn_noise_equals_one_draw_per_job(self, sim, v100, seed):
        """The device draws its noise in blocks; each batch still gets the
        next value of the stream, across block edges (150 batches cross two)."""
        interference = InterferenceModel(sub_knee_slope=0.0)
        dev = GPUDevice(sim, v100, interference, np.random.default_rng(seed),
                        exec_noise_sigma=0.1)
        twin = np.random.default_rng(seed)
        for i in range(150):
            solo = 0.01 * (1 + i % 7)
            batch = make_batch(solo=solo, mode=(ShareMode.SPATIAL, ShareMode.TEMPORAL)[i % 2])
            dev.submit(batch)
            noise = 1.0 + 0.1 * float(twin.standard_normal())
            assert batch.work == solo * max(0.5, noise) * 1.0 * 1.0, i
            sim.run()
            assert batch.completed_at is not None, i
