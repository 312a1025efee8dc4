"""Tests for the metrics collector."""

import numpy as np
import pytest

from repro.framework.request import Batch, ShareMode
from repro.simulator.cpu import CPUDevice
from repro.simulator.gpu import GPUDevice
from repro.simulator.metrics import BatchReader, MetricsCollector
from repro.workloads.models import get_model


def completed_batch(model="resnet50", arrivals=(0.0, 0.1), done_at=0.3,
                    mode=ShareMode.SPATIAL, hw="g3s.xlarge", **bd):
    batch = Batch(
        model=get_model(model), arrivals=np.asarray(arrivals, dtype=float),
        dispatched_at=float(arrivals[-1]), mode=mode,
    )
    for key, val in bd.items():
        setattr(batch, key, val)
    batch.complete(done_at)
    batch.hardware_name = hw
    return batch


class TestRecording:
    def test_incomplete_batch_rejected(self):
        m = MetricsCollector()
        batch = Batch(model=get_model("resnet50"), arrivals=np.array([0.0]),
                      dispatched_at=0.0)
        with pytest.raises(ValueError):
            m.record_batch(batch)

    def test_latencies_are_per_request(self):
        m = MetricsCollector()
        m.record_batch(completed_batch(arrivals=(0.0, 0.1, 0.2), done_at=0.3))
        assert sorted(m.latencies().tolist()) == pytest.approx([0.1, 0.2, 0.3])

    def test_model_filter(self):
        m = MetricsCollector()
        m.record_batch(completed_batch(model="resnet50"))
        m.record_batch(completed_batch(model="vgg19"))
        assert m.latencies("resnet50").size == 2
        assert m.completed_requests("vgg19") == 2

    def test_reader_reads_one_log_forward(self):
        # Each pillar reads its run's log from where it last stopped; a
        # reader belongs to one run, so a second log is refused.
        a = MetricsCollector()
        a.record_batch(completed_batch(arrivals=(0.0,), done_at=1.0), 3)
        a.record_batch(completed_batch(model="vgg19", arrivals=(0.1, 0.2),
                                       done_at=0.5), 4)
        reader = BatchReader()
        assert not reader.pending() and len(reader.read()) == 0
        reader.attach(a.log)
        reader.attach(a.log)
        assert reader.pending()
        rows = reader.read()
        assert rows["node_id"].tolist() == [3, 4]
        assert rows.labels("model") == ["resnet50", "vgg19"]
        assert rows.latencies().tolist() == pytest.approx([1.0, 0.4, 0.3])
        assert not reader.pending() and len(reader.read()) == 0
        a.record_batch(completed_batch(arrivals=(0.3,), done_at=2.0))
        rows = reader.read(copy=False)
        assert rows["first"].tolist() == [3]
        assert rows.latencies().tolist() == pytest.approx([1.7])
        with pytest.raises(ValueError, match="one run's batch log"):
            reader.attach(MetricsCollector().log)


class TestCompliance:
    def test_all_within_slo(self):
        m = MetricsCollector()
        m.record_offered(2)
        m.record_batch(completed_batch(arrivals=(0.0, 0.05), done_at=0.1))
        assert m.slo_compliance(0.2) == 1.0

    def test_unserved_count_as_violations(self):
        m = MetricsCollector()
        m.record_offered(4)
        m.record_batch(completed_batch(arrivals=(0.0, 0.05), done_at=0.1))
        m.record_unserved(2)
        assert m.slo_compliance(0.2) == pytest.approx(0.5)

    def test_empty_is_vacuously_compliant(self):
        assert MetricsCollector().slo_compliance(0.2) == 1.0

    def test_percentiles(self):
        m = MetricsCollector()
        m.record_batch(completed_batch(arrivals=tuple(np.linspace(0, 0.99, 100)),
                                       done_at=1.0))
        assert m.percentile_latency(50.0) == pytest.approx(0.505, abs=0.02)


class TestGoodput:
    def test_counts_compliant_arrivals_in_window(self):
        m = MetricsCollector()
        m.record_batch(completed_batch(arrivals=(1.0, 1.5), done_at=1.6))
        m.record_batch(completed_batch(arrivals=(2.0,), done_at=5.0))  # late
        assert m.goodput(0.2, (1.0, 3.0)) == pytest.approx(0.5)  # 1 of 2s... 1 good/2s

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector().goodput(0.2, (1.0, 1.0))


class TestBreakdownAndUsage:
    def test_tail_breakdown_keys(self):
        m = MetricsCollector()
        m.record_batch(completed_batch(queue_delay=0.05, exec_solo=0.1))
        bd = m.tail_breakdown()
        assert set(bd) == {
            "batching_wait", "cold_start_wait", "queue_delay",
            "exec_solo", "interference_extra", "failure_wait", "total",
        }
        assert bd["total"] == pytest.approx(0.15)

    def test_tail_breakdown_empty(self):
        assert MetricsCollector().tail_breakdown()["total"] == 0.0

    def test_hardware_usage(self):
        m = MetricsCollector()
        m.record_batch(completed_batch(hw="g3s.xlarge", arrivals=(0.0, 0.1)))
        m.record_batch(completed_batch(hw="p3.2xlarge", arrivals=(0.0,)))
        assert m.hardware_usage() == {"g3s.xlarge": 2, "p3.2xlarge": 1}

    def test_mode_split(self):
        m = MetricsCollector()
        m.record_batch(completed_batch(mode=ShareMode.SPATIAL, arrivals=(0.0,)))
        m.record_batch(completed_batch(mode=ShareMode.TEMPORAL, arrivals=(0.0, 0.1)))
        assert m.mode_split() == {"spatial": 1, "temporal": 2}


class TestExecutionContext:
    """Each row carries the device's co-run level and FBR at the batch's
    last start, as the device stamped them on the batch."""

    @staticmethod
    def new_batch(m, solo, fbr):
        batch = Batch(model=get_model("resnet50"), arrivals=np.array([0.0]),
                      dispatched_at=0.0)
        batch.set_execution(
            solo, fbr, 1.0, on_complete=lambda b: m.record_batch(b, node_id=0)
        )
        return batch

    def test_gpu_batch_logs_its_last_start(self, sim, v100):
        m = MetricsCollector()
        dev = GPUDevice(sim, v100, rng=np.random.default_rng(0),
                        exec_noise_sigma=0.0)
        peer, victim = self.new_batch(m, 0.05, 0.5), self.new_batch(m, 0.2, 0.25)
        dev.submit(peer)
        dev.submit(victim)
        # The victim started while co-running with its peer...
        assert (victim.co_run, victim.start_fbr) == (2, 0.75)
        # ...is OOM-killed, and restarts alone once the peer is done.
        sim.schedule_at(0.01, lambda: dev.evict_one())
        sim.schedule_at(0.5, lambda: dev.submit(victim))
        sim.run()
        rows = m.log.view()
        assert rows["batch_id"].tolist() == [peer.batch_id, victim.batch_id]
        assert rows["co_run"].tolist() == [1, 1]
        assert rows["start_fbr"].tolist() == [0.5, 0.25]
        assert rows["started_at"].tolist() == [0.0, 0.5]

    def test_cpu_batch_logs_lanes_in_use_and_no_fbr(self, sim, cpu_node):
        m = MetricsCollector()
        dev = CPUDevice(sim, cpu_node, np.random.default_rng(0),
                        exec_noise_sigma=0.0)
        lanes = cpu_node.cpu_lanes
        batches = [self.new_batch(m, 0.1, 0.0) for _ in range(lanes + 1)]
        batches[0].start_fbr = 0.5  # as a GPU start left it
        for batch in batches:
            dev.submit(batch)
        sim.run()
        rows = m.log.view()
        # The queued batch takes the first lane that frees up.
        assert sorted(rows["co_run"].tolist()) == (
            list(range(1, lanes + 1)) + [lanes])
        assert rows["co_run"].max() <= lanes
        assert (rows["start_fbr"] == 0.0).all()
