"""Tests for the CPU device model."""

import numpy as np
import pytest

from repro.framework.request import Batch, ShareMode
from repro.simulator.cpu import CPUDevice
from repro.workloads.models import get_model


def make_device(sim, spec, noise=0.0):
    return CPUDevice(sim, spec, np.random.default_rng(1), exec_noise_sigma=noise)


def make_batch(n=2, solo=0.1, done=None):
    model = get_model("resnet50")
    batch = Batch(model=model, arrivals=np.linspace(0, 0.01, n), dispatched_at=0.0)
    batch.set_execution(solo, 0.0, 0.1, on_complete=done)
    return batch


class TestLanes:
    def test_gpu_spec_rejected(self, sim, v100):
        with pytest.raises(ValueError):
            make_device(sim, v100)

    def test_single_job_runs_in_solo_time(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        done = []
        dev.submit(make_batch(done=lambda b: done.append(sim.now)))
        sim.run()
        assert done == [pytest.approx(0.1)]

    def test_jobs_up_to_lanes_run_concurrently(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        done = []
        for _ in range(cpu_node.cpu_lanes):
            dev.submit(make_batch(done=lambda b: done.append(sim.now)))
        sim.run()
        assert all(t == pytest.approx(0.1) for t in done)

    def test_excess_jobs_queue_fifo(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        done = []
        for i in range(cpu_node.cpu_lanes + 1):
            dev.submit(make_batch(done=lambda b, i=i: done.append((i, sim.now))))
        sim.run()
        assert done[-1][0] == cpu_node.cpu_lanes
        assert done[-1][1] == pytest.approx(0.2, rel=1e-6)

    def test_queue_delay_recorded(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        batches = [make_batch() for _ in range(cpu_node.cpu_lanes + 1)]
        for b in batches:
            dev.submit(b)
        sim.run()
        assert batches[-1].queue_delay == pytest.approx(0.1, rel=1e-6)

    def test_queued_requests_counts(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        for _ in range(cpu_node.cpu_lanes):
            dev.submit(make_batch(n=3))
        dev.submit(make_batch(n=5))
        assert dev.queued_requests() == 5


class TestNoise:
    @pytest.mark.parametrize("seed", [0, 11])
    def test_block_drawn_noise_equals_one_draw_per_job(self, sim, cpu_node,
                                                       seed):
        """The device draws its noise in blocks; each batch still gets the
        next value of the stream, across block edges (150 batches cross two):
        the engine completes it at ``started_at + service``."""
        dev = CPUDevice(sim, cpu_node, np.random.default_rng(seed),
                        exec_noise_sigma=0.1)
        twin = np.random.default_rng(seed)
        for i in range(150):
            solo = 0.01 * (1 + i % 7)
            batch = make_batch(solo=solo)
            dev.submit(batch)
            sim.run()
            noise = 1.0 + 0.1 * float(twin.standard_normal())
            service = solo * max(0.5, noise) * 1.0 * 1.0
            assert batch.completed_at == batch.started_at + service, i


class TestContention:
    def test_contention_inflates_service(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        dev.contention_factor = 1.5  # as the SeBS injector sets it
        done = []
        dev.submit(make_batch(done=lambda b: done.append(sim.now)))
        sim.run()
        assert done == [pytest.approx(0.15, rel=1e-6)]

    def test_contention_extra_attributed_to_interference(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        dev.contention_factor = 1.5
        batch = make_batch()
        dev.submit(batch)
        sim.run()
        assert batch.interference_extra == pytest.approx(0.05, rel=1e-6)


class TestEvictionAndAccounting:
    def test_evict_all(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        for _ in range(6):
            dev.submit(make_batch())
        evicted = dev.evict_all()
        assert len(evicted) == 6
        assert dev.idle
        sim.run()

    def test_evict_queued_leaves_running(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        for _ in range(cpu_node.cpu_lanes + 2):
            dev.submit(make_batch())
        evicted = dev.evict_queued()
        assert len(evicted) == 2
        assert dev.n_active == cpu_node.cpu_lanes

    def test_busy_time(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        dev.submit(make_batch(solo=0.2))
        sim.run()
        assert dev.busy_seconds == pytest.approx(0.2, rel=1e-6)

    def test_jobs_completed(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        done = []
        for _ in range(3):
            dev.submit(make_batch(done=done.append))
        sim.run()
        assert len(done) == 3


class TestSubmitAndEviction:
    def test_free_lanes_start_at_submit_and_one_queues(self, sim, cpu_node):
        lanes = cpu_node.cpu_lanes
        dev = make_device(sim, cpu_node)
        done = []
        batches = [make_batch(done=lambda b, i=i: done.append((i, sim.now)))
                   for i in range(lanes + 1)]
        for batch in batches:
            dev.submit(batch)
        # Before any event fires: L batches running, one waiting.
        assert (dev.n_active, dev.queued_requests()) == (lanes, 2)
        assert all(batch.started_at == 0.0 for batch in batches[:lanes])
        assert batches[-1].started_at is None
        sim.run()
        assert [i for i, _ in done] == list(range(lanes + 1))
        assert done[-1][1] == pytest.approx(0.2, rel=1e-6)

    def test_resubmitted_batch_ignores_its_evicted_attempt(self, sim, cpu_node):
        """An OOM-killed batch retried on the same device completes once,
        one solo time after its new start: the killed attempt's pending
        completion does not finish the new one."""
        dev = make_device(sim, cpu_node)
        done = []
        batch = make_batch(solo=0.1, done=lambda b: done.append(sim.now))
        dev.submit(batch)
        sim.schedule_at(0.02, dev.evict_one)
        sim.schedule_at(0.05, lambda: dev.submit(batch))
        sim.run()
        assert done == [pytest.approx(0.15)]
        assert batch.started_at == pytest.approx(0.05)
        assert batch.exec_solo == pytest.approx(0.1)
        assert dev.idle

    def test_oom_evicted_batch_never_completes(self, sim, cpu_node):
        from repro.simulator.containers import ContainerPool

        lanes = cpu_node.cpu_lanes
        dev = make_device(sim, cpu_node)
        pool = ContainerPool(sim, cold_start_seconds=1.0)
        pool.add_warm(lanes + 1)
        completed = []

        def on_complete(batch):
            completed.append(batch)
            pool.release()

        batches = []
        for _ in range(lanes + 1):
            assert pool.take_warm()
            batch = make_batch(done=on_complete)
            batch.on_evict = lambda b: pool.release()
            batches.append(batch)
            dev.submit(batch)
        evicted = []

        def oom():
            batch = dev.evict_one()
            batch.on_evict(batch)  # the framework balances the acquisition
            evicted.append(batch)

        sim.schedule(0.05, oom)
        sim.run()
        (victim,) = evicted
        assert victim is batches[lanes - 1]  # the youngest running batch
        assert victim.started_at is None
        assert victim.completed_at is None
        assert victim not in completed
        # The queued batch took the freed lane at the eviction instant.
        assert batches[-1].started_at == pytest.approx(0.05)
        assert len(completed) == lanes == len(set(map(id, completed)))
        # Each acquisition was released exactly once.
        assert (pool.n_busy, pool.n_warm_idle) == (0, lanes + 1)
        assert dev.idle
