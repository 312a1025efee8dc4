"""End-to-end tests: the sampler wired through a real traced run."""

import math

import numpy as np
import pytest

from repro.experiments.schemes import make_policy
from repro.framework.slo import SLO
from repro.core.resilience import BreakerPolicy, ResilienceConfig
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator.chaos import ChaosSpec, PeriodicOutage
from repro.telemetry import Tracer, to_prometheus_text
from repro.workloads.models import get_model
from repro.workloads.traces import poisson_trace

DURATION = 20.0


@pytest.fixture(scope="module")
def traced_run():
    model = get_model("resnet50")
    profiles = ProfileService()
    slo = SLO()
    trace = poisson_trace(
        rate_rps=model.peak_rps, duration=DURATION, seed=0
    )
    policy = make_policy(
        "paldia", model, profiles, slo.target_seconds, trace
    )
    tracer = Tracer()
    run = ServerlessRun(model, trace, policy, profiles, slo, tracer=tracer)
    result = run.execute()
    return result, run, tracer


class TestSamplerWiring:
    def test_sampler_attached_and_sampled(self, traced_run):
        _, run, tracer = traced_run
        sampler = run.obs.sampler
        assert sampler is not None
        assert tracer.timeseries is sampler
        assert sampler.n_samples > 0
        assert sampler.meta.get("probe_errors") is None

    def test_core_columns_present_and_finite(self, traced_run):
        _, run, _ = traced_run
        for name in ("rate.offered", "rate.predicted", "hw.selected",
                     "queue.device", "pool.warm_idle",
                     "autoscaler.pool_target", "cold_starts.total",
                     "slo.burn_rate"):
            col = run.obs.sampler.column(name)
            assert not np.all(np.isnan(col)), name

    def test_per_spec_columns_cover_catalog(self, traced_run):
        _, run, _ = traced_run
        names = set(run.obs.sampler.probe_names())
        for spec in run.profiles.catalog:
            assert f"node.{spec.name}.occupancy" in names
            assert f"node.{spec.name}.co_run" in names

    def test_leased_spec_has_occupancy_readings(self, traced_run):
        _, run, _ = traced_run
        sampler = run.obs.sampler
        leased = [
            n for n in sampler.probe_names()
            if n.startswith("node.") and n.endswith(".occupancy")
            and not np.all(np.isnan(sampler.column(n)))
        ]
        assert leased  # at least one node served traffic

    def test_offered_rate_tracks_trace(self, traced_run):
        _, run, _ = traced_run
        col = run.obs.sampler.column("rate.offered")
        assert np.nanmax(col) > 0.0

    def test_hw_selected_codes_valid(self, traced_run):
        _, run, _ = traced_run
        codes = run.obs.sampler.column("hw.selected")
        finite = codes[~np.isnan(codes)]
        n = len(run.obs.sampler.meta["hardware_codes"])
        assert finite.size > 0
        assert ((finite >= 0) & (finite < n)).all()

    def test_disabled_interval_schedules_no_sampler(self):
        tracer = Tracer()
        model = get_model("resnet50")
        profiles = ProfileService()
        slo = SLO()
        trace = poisson_trace(rate_rps=20.0, duration=5.0, seed=0)
        policy = make_policy(
            "paldia", model, profiles, slo.target_seconds, trace
        )
        run = ServerlessRun(
            model, trace, policy, profiles, slo,
            RunConfig(timeseries_interval_seconds=0.0), tracer=tracer,
        )
        run.execute()
        assert run.obs.sampler is None
        # The sampler is the only state recorder: no series anywhere.
        assert tracer.timeseries is None
        assert "repro_ts_" not in to_prometheus_text(tracer)

    def test_untraced_run_has_no_sampler(self):
        model = get_model("resnet50")
        profiles = ProfileService()
        slo = SLO()
        trace = poisson_trace(rate_rps=20.0, duration=5.0, seed=0)
        policy = make_policy(
            "paldia", model, profiles, slo.target_seconds, trace
        )
        run = ServerlessRun(model, trace, policy, profiles, slo)
        run.execute()
        assert run.obs is None


class TestPrometheusGauges:
    def test_ts_gauges_exported(self, traced_run):
        _, _, tracer = traced_run
        text = to_prometheus_text(tracer)
        ts_lines = [l for l in text.splitlines()
                    if l.startswith("repro_ts_")]
        assert any("repro_ts_rate_offered" in l for l in ts_lines)
        assert any("repro_ts_pool_warm_idle" in l for l in ts_lines)

    def test_nan_series_skipped(self, traced_run):
        _, run, tracer = traced_run
        text = to_prometheus_text(tracer)
        sampler = run.obs.sampler
        for name in sampler.probe_names():
            if math.isnan(sampler.last(name)):
                sanitized = name.replace(".", "_")
                assert f"repro_ts_{sanitized} " not in text

    def test_registry_only_source_has_no_ts_gauges(self):
        from repro.telemetry import MetricsRegistry

        text = to_prometheus_text(MetricsRegistry())
        assert "repro_ts_" not in text


class TestDeviceProbes:
    def test_gpu_occupancy_and_co_run(self):
        from repro.hardware.catalog import default_catalog
        from repro.simulator.engine import Simulator
        from repro.simulator.gpu import GPUDevice

        spec = default_catalog().get("p3.2xlarge")
        gpu = GPUDevice(Simulator(), spec)
        assert gpu.occupancy == 0.0
        assert gpu.co_run_level == 0

    def test_cpu_occupancy_and_co_run(self):
        from repro.hardware.catalog import default_catalog
        from repro.simulator.cpu import CPUDevice
        from repro.simulator.engine import Simulator

        spec = default_catalog().get("c6i.4xlarge")
        cpu = CPUDevice(Simulator(), spec)
        assert cpu.occupancy == 0.0
        assert cpu.co_run_level == 0


#: Each name the metrics registry once sampled as a 1 s gauge, and the
#: time-series probe(s) that now carry the same read.
FORMER_GAUGES = {
    "queue.device_requests": ("queue.device",),
    "queue.pending_windows": ("queue.pending_windows",),
    "containers.warm_idle": ("pool.warm_idle",),
    "containers.spawning": ("pool.spawning",),
    "containers.busy": ("pool.busy",),
    "containers.waiting": ("pool.waiting",),
    "jobs.active_spatial": ("jobs.active_spatial",),
    "jobs.active_temporal": ("jobs.active_temporal",),
    "gpu.total_fbr": ("gpu.total_fbr",),
    "gpu.mem_used_gb": ("gpu.mem_used_gb",),
    "cold_starts.total": ("cold_starts.total",),
    "resilience.retries_scheduled": ("resilience.retries_scheduled",),
    "resilience.retries_abandoned": ("resilience.retries_abandoned",),
    "resilience.requests_shed": ("resilience.requests_shed",),
    "resilience.requests_dropped": ("resilience.requests_dropped",),
    "resilience.breakers_open": ("breaker.open", "breaker.half_open"),
}


class TestFormerGaugesAreProbes:
    """No state read was lost when the registry gauges were retired."""

    @pytest.fixture(scope="class")
    def retry_run(self):
        model = get_model("resnet50")
        profiles = ProfileService()
        slo = SLO()
        trace = poisson_trace(
            rate_rps=model.peak_rps, duration=DURATION, seed=0
        )
        policy = make_policy(
            "paldia", model, profiles, slo.target_seconds, trace
        )
        config = RunConfig(
            chaos=ChaosSpec(faults=(
                PeriodicOutage(8.0, 3.0, first_failure_at=4.0),
            )),
            # One failure trips a breaker that stays open to the end, so
            # the last sample has a non-zero breaker count to compare.
            resilience=ResilienceConfig(
                recovery="retry",
                breaker=BreakerPolicy(
                    failure_threshold=1, cooldown_seconds=1000.0
                ),
            ),
        )
        tracer = Tracer()
        run = ServerlessRun(
            model, trace, policy, profiles, slo, config, tracer=tracer
        )
        return run.execute(), run, tracer

    def test_every_former_gauge_has_its_probe(self, retry_run):
        _, run, _ = retry_run
        names = set(run.obs.sampler.probe_names())
        assert len(FORMER_GAUGES) == 16
        for gauge, probes in FORMER_GAUGES.items():
            for probe in probes:
                assert probe in names, (gauge, probe)

    def test_breaker_states_sum_to_open_breakers(self, retry_run):
        _, run, _ = retry_run
        sampler = run.obs.sampler
        counts = run.resilience.breaker_state_counts()
        open_breakers = counts["open"] + counts["half_open"]
        assert open_breakers > 0
        assert sampler.last("breaker.open") + sampler.last(
            "breaker.half_open"
        ) == open_breakers

    def test_resilience_probes_end_at_the_result(self, retry_run):
        result, run, _ = retry_run
        sampler = run.obs.sampler
        assert result.retries_scheduled > 0  # the outages forced retries
        for name, value in (
            ("resilience.retries_scheduled", result.retries_scheduled),
            ("resilience.retries_abandoned", result.retries_abandoned),
            ("resilience.requests_shed", result.requests_shed),
            ("resilience.requests_dropped", result.requests_dropped),
        ):
            assert sampler.last(name) == value, name

    def test_registry_holds_no_state(self, retry_run):
        # The traced run's snapshot has no registry instruments: run
        # state reaches it only as sampler gauges, next to the latency
        # histogram it computes from the batch log.
        _, _, tracer = retry_run
        types = [line.split()[2:] for line in
                 to_prometheus_text(tracer).splitlines()
                 if line.startswith("# TYPE")]
        hist = ["repro_request_latency_seconds", "histogram"]
        assert hist in types
        assert all(name.startswith("repro_ts_") and kind == "gauge"
                   for name, kind in types if [name, kind] != hist)
