"""Tests for the CPU device model."""

import numpy as np
import pytest

from repro.framework.request import Batch, ShareMode
from repro.simulator.cpu import CPUDevice
from repro.simulator.job import Job
from repro.workloads.models import get_model


def make_device(sim, spec, noise=0.0):
    return CPUDevice(sim, spec, np.random.default_rng(1), exec_noise_sigma=noise)


def make_job(n=2, solo=0.1, done=None):
    model = get_model("resnet50")
    batch = Batch(model=model, arrivals=np.linspace(0, 0.01, n), dispatched_at=0.0)
    return Job(batch=batch, solo_time=solo, fbr=0.0, mem_gb=0.1, on_complete=done)


class TestLanes:
    def test_gpu_spec_rejected(self, sim, v100):
        with pytest.raises(ValueError):
            make_device(sim, v100)

    def test_single_job_runs_in_solo_time(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        done = []
        dev.submit(make_job(done=lambda j: done.append(sim.now)))
        sim.run()
        assert done == [pytest.approx(0.1)]

    def test_jobs_up_to_lanes_run_concurrently(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        done = []
        for _ in range(cpu_node.cpu_lanes):
            dev.submit(make_job(done=lambda j: done.append(sim.now)))
        sim.run()
        assert all(t == pytest.approx(0.1) for t in done)

    def test_excess_jobs_queue_fifo(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        done = []
        for i in range(cpu_node.cpu_lanes + 1):
            dev.submit(make_job(done=lambda j, i=i: done.append((i, sim.now))))
        sim.run()
        assert done[-1][0] == cpu_node.cpu_lanes
        assert done[-1][1] == pytest.approx(0.2, rel=1e-6)

    def test_queue_delay_recorded(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        jobs = [make_job() for _ in range(cpu_node.cpu_lanes + 1)]
        for j in jobs:
            dev.submit(j)
        sim.run()
        assert jobs[-1].batch.breakdown.queue_delay == pytest.approx(0.1, rel=1e-6)

    def test_queued_requests_counts(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        for _ in range(cpu_node.cpu_lanes):
            dev.submit(make_job(n=3))
        dev.submit(make_job(n=5))
        assert dev.queued_requests() == 5


class TestContention:
    def test_contention_inflates_service(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        dev.set_contention(1.5)
        done = []
        dev.submit(make_job(done=lambda j: done.append(sim.now)))
        sim.run()
        assert done == [pytest.approx(0.15, rel=1e-6)]

    def test_contention_extra_attributed_to_interference(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        dev.set_contention(1.5)
        job = make_job()
        dev.submit(job)
        sim.run()
        assert job.batch.breakdown.interference_extra == pytest.approx(0.05, rel=1e-6)

    def test_contention_below_one_rejected(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        with pytest.raises(ValueError):
            dev.set_contention(0.9)


class TestEvictionAndAccounting:
    def test_evict_all(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        for _ in range(6):
            dev.submit(make_job())
        evicted = dev.evict_all()
        assert len(evicted) == 6
        assert dev.idle
        sim.run()

    def test_evict_queued_leaves_running(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        for _ in range(cpu_node.cpu_lanes + 2):
            dev.submit(make_job())
        evicted = dev.evict_queued()
        assert len(evicted) == 2
        assert dev.n_active == cpu_node.cpu_lanes

    def test_busy_time(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        dev.submit(make_job(solo=0.2))
        sim.run()
        assert dev.busy_seconds == pytest.approx(0.2, rel=1e-6)

    def test_jobs_completed(self, sim, cpu_node):
        dev = make_device(sim, cpu_node)
        for _ in range(3):
            dev.submit(make_job())
        sim.run()
        assert dev.jobs_completed == 3


class TestSubmitAndEviction:
    def test_free_lanes_start_at_submit_and_one_queues(self, sim, cpu_node):
        lanes = cpu_node.cpu_lanes
        dev = make_device(sim, cpu_node)
        done = []
        jobs = [make_job(done=lambda j, i=i: done.append((i, sim.now)))
                for i in range(lanes + 1)]
        for job in jobs:
            dev.submit(job)
        # Before any event fires: L batches running, one waiting.
        assert (dev.n_active, dev.n_queued) == (lanes, 1)
        assert all(job.started_at == 0.0 for job in jobs[:lanes])
        assert jobs[-1].started_at is None
        sim.run()
        assert [i for i, _ in done] == list(range(lanes + 1))
        assert done[-1][1] == pytest.approx(0.2, rel=1e-6)

    def test_oom_evicted_batch_never_completes(self, sim, cpu_node):
        from repro.simulator.containers import ContainerPool

        lanes = cpu_node.cpu_lanes
        dev = make_device(sim, cpu_node)
        pool = ContainerPool(sim, cold_start_seconds=1.0)
        pool.add_warm(lanes + 1)
        completed = []

        def on_complete(job):
            completed.append(job)
            pool.release()

        jobs = []
        for _ in range(lanes + 1):
            assert pool.take_warm()
            job = make_job(done=on_complete)
            job.on_evict = lambda j: pool.release()
            jobs.append(job)
            dev.submit(job)
        evicted = []

        def oom():
            job = dev.evict_one()
            job.on_evict(job)  # the framework balances the acquisition
            evicted.append(job)

        sim.schedule(0.05, oom)
        sim.run()
        (victim,) = evicted
        assert victim is jobs[lanes - 1]  # the youngest running batch
        assert victim.started_at is None
        assert victim.batch.completed_at is None
        assert victim not in completed
        # The queued batch took the freed lane at the eviction instant.
        assert jobs[-1].started_at == pytest.approx(0.05)
        assert len(completed) == lanes == len(set(map(id, completed)))
        assert dev.jobs_completed == lanes
        # Each acquisition was released exactly once.
        assert (pool.n_busy, pool.n_warm_idle) == (0, lanes + 1)
        assert dev.idle
