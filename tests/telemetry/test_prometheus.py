"""Tests for the Prometheus text-format exporter."""

import re

import numpy as np
import pytest

from repro.simulator.engine import Simulator
from repro.simulator.metrics import MetricsCollector
from repro.telemetry import (
    MetricsRegistry,
    SLOMonitor,
    StateSampler,
    Tracer,
    to_prometheus_text,
    write_prometheus,
)

from tests.telemetry.test_costmeter import log_batch
from tests.telemetry.test_slo_monitor import observe
from tests.telemetry.test_tracer import make_completed_batch, record

#: A sample line: name{labels} value
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? [^ ]+$"
)


def make_registry():
    reg = MetricsRegistry()
    reg.counter("cold_starts").inc(3)
    return reg


def make_traced(resnet50, latencies=(0.05, 0.25, 0.3, 0.9, 12.0)):
    """A tracer reading a log of batches with these first-arrival
    latencies (each batch's first arrival is at 1.0)."""
    tracer = Tracer()
    record(tracer, *(make_completed_batch(resnet50, completed_at=1.0 + lat)
                     for lat in latencies))
    return tracer


class TestExposition:
    def test_counter_gets_total_suffix(self):
        text = to_prometheus_text(make_registry())
        assert "# TYPE repro_cold_starts_total counter" in text
        assert "repro_cold_starts_total 3" in text

    def test_gauge_name_sanitised(self):
        # Run state reaches the snapshot only through the sampler's
        # last readings, as ``repro_ts_*`` gauges; NaN series are skipped.
        tracer = Tracer()
        sampler = tracer.timeseries = StateSampler(1.0)
        sampler.probes(("queue.device",), lambda: 7.5)
        sampler.probes(("node.g4dn.xlarge.occupancy",), lambda: np.nan)
        sampler.start(Simulator(), horizon=1.0)
        sampler.sample(1.0)
        text = to_prometheus_text(tracer)
        assert "# TYPE repro_ts_queue_device gauge" in text
        assert "repro_ts_queue_device 7.5" in text
        assert "occupancy" not in text

    def test_histogram_buckets_are_cumulative(self, resnet50):
        text = to_prometheus_text(make_traced(resnet50))
        name = "repro_request_latency_seconds"
        assert f"# TYPE {name} histogram" in text
        assert f'{name}_bucket{{le="0.1"}} 1' in text
        # Bucket edges are inclusive: 0.25 lands in le="0.25".
        assert f'{name}_bucket{{le="0.25"}} 2' in text
        assert f'{name}_bucket{{le="0.5"}} 3' in text
        assert f'{name}_bucket{{le="10"}} 4' in text
        # Past the last edge: only the overflow bucket counts it.
        assert f'{name}_bucket{{le="+Inf"}} 5' in text
        assert f"{name}_count 5" in text
        (sum_line,) = [
            x for x in text.splitlines() if x.startswith(f"{name}_sum ")
        ]
        assert float(sum_line.split()[-1]) == pytest.approx(13.5)

    def test_every_sample_line_is_well_formed(self, resnet50):
        for source in (make_registry(), make_traced(resnet50)):
            for line in to_prometheus_text(source).splitlines():
                if not line or line.startswith("#"):
                    continue
                assert _SAMPLE_RE.match(line), line

    def test_latency_histogram_filled_from_the_log_at_export(self, resnet50):
        # The export reads the batches completed so far: no finalize
        # step stands between a run and a complete histogram.
        tracer = Tracer()
        collector = record(tracer, make_completed_batch(resnet50))
        text = to_prometheus_text(tracer)
        assert "repro_request_latency_seconds_count 1" in text
        collector.record_batch(
            make_completed_batch(resnet50, completed_at=1.5)
        )
        text = to_prometheus_text(tracer)
        assert "repro_request_latency_seconds_count 2" in text
        assert (f"repro_request_latency_seconds_sum "
                f"{(1.35 - 1.0) + (1.5 - 1.0)!r}") in text


class TestMonitorSeries:
    def make_monitor(self):
        m = SLOMonitor(0.2, window_seconds=30.0, min_window_requests=10)
        m.collector = MetricsCollector()
        m.attach(m.collector.log)
        observe(m, 0.0, "resnet50", "g3s.xlarge",
                np.concatenate([np.full(95, 0.05), np.full(5, 0.5)]))
        m.sample(1.0)
        return m

    def test_windows_exported_with_labels(self):
        text = to_prometheus_text(
            MetricsRegistry(), monitor=self.make_monitor(), now=1.0
        )
        assert (
            'repro_slo_window_attainment{scope="model",key="resnet50"} 0.95'
            in text
        )
        (burn_line,) = [
            x for x in text.splitlines()
            if x.startswith(
                'repro_slo_window_burn_rate{scope="hardware"'
            )
        ]
        assert float(burn_line.split()[-1]) == pytest.approx(5.0)
        assert (
            'repro_slo_alert_firing{scope="model",key="resnet50"} 1' in text
        )

    def test_monitor_requires_now(self):
        with pytest.raises(ValueError, match="now"):
            to_prometheus_text(MetricsRegistry(), monitor=self.make_monitor())


class TestCostSeries:
    def make_meter(self):
        from repro.hardware.catalog import HardwareKind, HardwareSpec
        from repro.telemetry.costmeter import CostMeter

        spec = HardwareSpec(
            "test.node", HardwareKind.GPU, "Test GPU", 3600.0, 16, 8,
            1.0, 900.0, 100.0, 300.0, 2.0, 5.0,
        )
        meter = CostMeter()
        meter.on_acquire(0, spec, 0.0, ready_at=5.0)
        log_batch(meter, 0, "resnet50", 1, 4, 6.0, 8.0)
        meter.on_release(0, 10.0)
        return meter

    def test_cost_gauges_exported(self):
        text = to_prometheus_text(
            MetricsRegistry(), costmeter=self.make_meter(), now=10.0
        )
        assert "# TYPE repro_cost_total_dollars gauge" in text
        assert "repro_cost_total_dollars 10" in text
        assert 'repro_cost_bucket_dollars{bucket="busy"} 2' in text
        assert 'repro_cost_bucket_dollars{bucket="reconfig"} 5' in text
        assert 'repro_cost_spec_dollars{spec="test.node"} 10' in text
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert _SAMPLE_RE.match(line), line

    def test_costmeter_requires_now(self):
        with pytest.raises(ValueError, match="now"):
            to_prometheus_text(
                MetricsRegistry(), costmeter=self.make_meter()
            )


class TestWrite:
    def test_write_counts_sample_lines(self, tmp_path):
        path = tmp_path / "snap.prom"
        n = write_prometheus(make_registry(), str(path))
        text = path.read_text()
        assert n == sum(
            1 for x in text.splitlines() if x and not x.startswith("#")
        )
        assert n > 0
        assert text.endswith("\n")
