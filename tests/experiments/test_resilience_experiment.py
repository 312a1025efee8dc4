"""Tests for the resilience (fault-intensity sweep) experiment."""

import pytest

from repro.core.resilience import ResilienceConfig
from repro.experiments import resilience
from repro.experiments.cache import cell_key
from repro.experiments.executors import (
    ExecutionSettings,
    set_active_execution,
)
from repro.experiments.registry import experiment_ids, get_experiment
from repro.experiments.resilience import (
    BASE_MEAN_INTERARRIVAL,
    FAULT_MODEL,
    RECOVERY_MODES,
    chaos_for,
)
from repro.experiments.runner import CellSpec
from repro.experiments.schemes import COST_EFFECTIVE_SCHEMES
from repro.experiments.trace_factories import azure_factory
from repro.framework.system import RunConfig


class TestRegistry:
    def test_registered(self):
        assert "resilience" in experiment_ids()
        entry = get_experiment("resilience")
        assert entry.title
        assert entry.runner is resilience.run

    def test_cli_kwargs_forward_duration_and_repetitions(self):
        kw = get_experiment("resilience").cli_kwargs(
            duration=300.0, repetitions=2, seed=5
        )
        assert kw == {"duration": 300.0, "repetitions": 2}


class TestChaosFor:
    def test_intensity_scales_crash_rate(self):
        (base,) = chaos_for(1.0).faults
        (doubled,) = chaos_for(2.0).faults
        assert base.mean_interarrival_seconds == BASE_MEAN_INTERARRIVAL
        assert doubled.mean_interarrival_seconds == pytest.approx(
            BASE_MEAN_INTERARRIVAL / 2.0
        )

    def test_nonpositive_intensity_rejected(self):
        with pytest.raises(ValueError):
            chaos_for(0.0)

    def test_same_intensity_same_spec(self):
        assert chaos_for(2.0) == chaos_for(2.0)


class TestTinyRun:
    @pytest.fixture(scope="class")
    def report(self):
        previous = set_active_execution(ExecutionSettings(executor="serial"))
        try:
            return resilience.run(
                duration=60.0, repetitions=1, intensities=(2.0,)
            )
        finally:
            set_active_execution(previous)

    def test_shape(self, report):
        assert report.experiment_id == "resilience"
        assert report.headers == [
            "intensity", "recovery", "scheme", "slo_%", "cost_$",
            "retries", "lost_req",
        ]
        assert len(report.rows) == (
            len(RECOVERY_MODES) * len(COST_EFFECTIVE_SCHEMES)
        )

    def test_rows_cover_the_matrix(self, report):
        combos = {(row[1], row[2]) for row in report.rows}
        assert combos == {
            (mode, scheme)
            for mode in RECOVERY_MODES
            for scheme in COST_EFFECTIVE_SCHEMES
        }
        assert all(row[0] == 2.0 for row in report.rows)

    def test_drop_rows_never_retry(self, report):
        for row in report.rows:
            if row[1] == "drop":
                assert row[5] == 0  # retries column


class TestCacheCompatibility:
    """RunConfigs embedding ChaosSpec/ResilienceConfig must stay keyable
    so the experiment cache covers the resilience sweep."""

    def _spec(self, **config_kw):
        return CellSpec(
            scheme="paldia",
            model_name=FAULT_MODEL,
            seed=1,
            trace_factory=azure_factory(60.0),
            slo_seconds=resilience.SLO_SECONDS,
            config=RunConfig(**config_kw),
        )

    def test_chaos_config_is_cacheable_and_stable(self):
        spec = self._spec(
            chaos=chaos_for(2.0),
            resilience=ResilienceConfig(recovery="retry"),
        )
        key = cell_key(spec)
        assert key is not None
        assert key == cell_key(self._spec(
            chaos=chaos_for(2.0),
            resilience=ResilienceConfig(recovery="retry"),
        ))

    def test_fault_parameters_are_load_bearing(self):
        base = cell_key(self._spec(chaos=chaos_for(2.0)))
        assert cell_key(self._spec(chaos=chaos_for(4.0))) != base
        assert cell_key(self._spec(chaos=chaos_for(2.0, seed=9))) != base

    def test_recovery_mode_is_load_bearing(self):
        retry = cell_key(self._spec(
            chaos=chaos_for(2.0),
            resilience=ResilienceConfig(recovery="retry"),
        ))
        drop = cell_key(self._spec(
            chaos=chaos_for(2.0),
            resilience=ResilienceConfig(recovery="drop"),
        ))
        assert retry != drop
