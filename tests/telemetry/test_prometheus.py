"""Tests for the Prometheus text-format exporter."""

import re

import numpy as np
import pytest

from repro.telemetry import (
    MetricsRegistry,
    SLOMonitor,
    StateSampler,
    Tracer,
    to_prometheus_text,
    write_prometheus,
)

#: A sample line: name{labels} value
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? [^ ]+$"
)


def make_registry():
    reg = MetricsRegistry()
    reg.counter("cold_starts").inc(3)
    h = reg.histogram("latency_seconds", bounds=(0.1, 0.5))
    for v in (0.05, 0.2, 0.3, 0.9):
        h.observe(v)
    return reg


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
        sampler.probe("queue.device", lambda: 7.5)
        sampler.probe("node.g4dn.xlarge.occupancy", lambda: np.nan)
        sampler.sample(1.0)
        text = to_prometheus_text(tracer)
        assert "# TYPE repro_ts_queue_device gauge" in text
        assert "repro_ts_queue_device 7.5" in text
        assert "occupancy" not in text

    def test_histogram_buckets_are_cumulative(self):
        text = to_prometheus_text(make_registry())
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="0.5"} 3' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_latency_seconds_count 4" in text
        (sum_line,) = [
            x for x in text.splitlines()
            if x.startswith("repro_latency_seconds_sum ")
        ]
        assert float(sum_line.split()[-1]) == pytest.approx(1.45)

    def test_every_sample_line_is_well_formed(self):
        text = to_prometheus_text(make_registry())
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert _SAMPLE_RE.match(line), line

    def test_tracer_source_uses_its_registry(self):
        tracer = Tracer()
        tracer.metrics.counter("dispatches").inc()
        assert "repro_dispatches_total 1" in to_prometheus_text(tracer)


class TestMonitorSeries:
    def make_monitor(self):
        m = SLOMonitor(0.2, window_seconds=30.0, min_window_requests=10)
        m.observe_batch(
            0.0, "resnet50", "g3s.xlarge",
            np.concatenate([np.full(95, 0.05), np.full(5, 0.5)]),
        )
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
        meter.on_batch(0, "resnet50", 1, 4, 6.0, 8.0)
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
