"""Tests for the metrics collector."""

import numpy as np
import pytest

from repro.framework.request import Batch, ShareMode
from repro.simulator.metrics import BatchReader, MetricsCollector
from repro.workloads.models import get_model


def completed_batch(model="resnet50", arrivals=(0.0, 0.1), done_at=0.3,
                    mode=ShareMode.SPATIAL, hw="g3s.xlarge", **bd):
    batch = Batch(
        model=get_model(model), arrivals=np.asarray(arrivals, dtype=float),
        dispatched_at=float(arrivals[-1]), mode=mode,
    )
    for key, val in bd.items():
        setattr(batch.breakdown, key, val)
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
