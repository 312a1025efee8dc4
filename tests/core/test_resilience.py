"""Tests for deadline-aware retry, circuit breaking, and degradation."""

import pytest

from repro.core.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    ResilienceConfig,
    ResilienceController,
    RetryPolicy,
)
from repro.experiments.resilience import SLO_SECONDS, chaos_for
from repro.experiments.schemes import make_policy
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.telemetry import Tracer
from repro.telemetry.prometheus import to_prometheus_text
from repro.workloads.models import get_model
from repro.workloads.traces import azure_trace


class TestPolicyValidation:
    def test_retry_needs_at_least_one_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_backoff_cap_must_cover_base(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_seconds=1.0, max_backoff_seconds=0.5)

    def test_breaker_threshold_positive(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)

    def test_recovery_mode_checked(self):
        with pytest.raises(ValueError):
            ResilienceConfig(recovery="pray")

    def test_degraded_cap_positive(self):
        with pytest.raises(ValueError):
            ResilienceConfig(degraded_batch_cap=0)


class TestBackoff:
    def _controller(self, **retry_kw):
        return ResilienceController(
            ResilienceConfig(retry=RetryPolicy(**retry_kw), seed=1)
        )

    def test_deterministic_envelope_without_jitter(self):
        c = self._controller(
            jitter=False, base_backoff_seconds=0.1, max_backoff_seconds=2.0
        )
        assert c.next_backoff(0.0) == pytest.approx(0.1)
        assert c.next_backoff(0.1) == pytest.approx(0.3)
        assert c.next_backoff(0.3) == pytest.approx(0.9)
        assert c.next_backoff(1.0) == pytest.approx(2.0)  # capped

    def test_jitter_stays_in_envelope(self):
        c = self._controller(
            base_backoff_seconds=0.1, max_backoff_seconds=2.0
        )
        for prev in (0.0, 0.1, 0.5, 5.0):
            hi = min(2.0, max(0.1, prev * 3.0))
            for _ in range(50):
                assert 0.1 <= c.next_backoff(prev) <= hi

    def test_jitter_is_seeded(self):
        a = self._controller()
        b = self._controller()
        draws_a = [a.next_backoff(0.5) for _ in range(10)]
        draws_b = [b.next_backoff(0.5) for _ in range(10)]
        assert draws_a == draws_b


class TestPlanRetry:
    def _controller(self, **retry_kw):
        return ResilienceController(
            ResilienceConfig(retry=RetryPolicy(**retry_kw))
        )

    def test_plans_within_budget(self):
        c = self._controller(jitter=False, base_backoff_seconds=0.1)
        plan = c.plan_retry(now=0.0, deadline=10.0, attempt=1, prev_backoff=0.0)
        assert plan is not None
        delay, backoff = plan
        assert delay == backoff == pytest.approx(0.1)
        assert c.retries_scheduled == 1

    def test_exhausted_attempts_abandon(self):
        c = self._controller(max_attempts=3)
        assert c.plan_retry(0.0, 10.0, attempt=3, prev_backoff=0.0) is None
        assert c.retries_abandoned == 1

    def test_backoff_past_deadline_abandons(self):
        c = self._controller(jitter=False, base_backoff_seconds=0.1)
        # Only 50 ms of SLO budget left, but the earliest retry is 100 ms out.
        assert c.plan_retry(0.0, 0.05, attempt=1, prev_backoff=0.0) is None
        assert c.retries_abandoned == 1
        assert c.retries_scheduled == 0

    def test_scheduled_delay_always_lands_before_deadline(self):
        c = self._controller()
        now, deadline, prev = 0.0, 1.0, 0.0
        attempt = 1
        while True:
            plan = c.plan_retry(now, deadline, attempt, prev)
            if plan is None:
                break
            delay, prev = plan
            now += delay
            attempt += 1
            assert now < deadline

    def test_shed_counter(self):
        c = self._controller()
        c.shed(3)
        c.shed()
        assert c.requests_shed == 4


class TestCircuitBreaker:
    def _breaker(self, **kw):
        policy = BreakerPolicy(**{
            "failure_threshold": 3, "cooldown_seconds": 10.0,
            "half_open_probes": 1, **kw,
        })
        return CircuitBreaker("p3.2xlarge", policy)

    def test_stays_closed_below_threshold(self):
        b = self._breaker()
        b.record_failure(0.0)
        b.record_failure(1.0)
        assert b.state == CircuitBreaker.CLOSED
        assert b.allow(2.0)

    def test_trips_open_at_threshold(self):
        b = self._breaker()
        for t in (0.0, 1.0, 2.0):
            b.record_failure(t)
        assert b.state == CircuitBreaker.OPEN
        assert b.opened_at == 2.0
        assert not b.allow(3.0)
        assert b.blocking(3.0)

    def test_success_resets_failure_streak(self):
        b = self._breaker()
        b.record_failure(0.0)
        b.record_failure(1.0)
        b.record_success(2.0)
        b.record_failure(3.0)
        b.record_failure(4.0)
        assert b.state == CircuitBreaker.CLOSED

    def test_half_open_probe_budget(self):
        b = self._breaker(half_open_probes=1)
        for t in (0.0, 1.0, 2.0):
            b.record_failure(t)
        # After the cooldown, exactly one probe is admitted.
        assert b.allow(12.5)
        assert b.state == CircuitBreaker.HALF_OPEN
        assert not b.allow(12.6)

    def test_probe_success_closes(self):
        b = self._breaker()
        for t in (0.0, 1.0, 2.0):
            b.record_failure(t)
        assert b.allow(12.5)
        b.record_success(13.0)
        assert b.state == CircuitBreaker.CLOSED
        assert b.allow(13.1)

    def test_probe_failure_reopens(self):
        b = self._breaker()
        for t in (0.0, 1.0, 2.0):
            b.record_failure(t)
        assert b.allow(12.5)
        b.record_failure(13.0)
        assert b.state == CircuitBreaker.OPEN
        assert b.opened_at == 13.0
        assert not b.allow(13.1)  # a fresh cooldown started at 13.0

    def test_blocking_is_read_only(self):
        """Availability scans must not flip OPEN -> HALF_OPEN or consume
        probe slots; only allow() may."""
        b = self._breaker()
        for t in (0.0, 1.0, 2.0):
            b.record_failure(t)
        # Past the cooldown: no longer blocking, but still OPEN until a
        # dispatch actually probes it.
        assert not b.blocking(12.5)
        assert b.state == CircuitBreaker.OPEN
        assert b.allow(12.5)  # the probe slot is still available


class TestController:
    def test_target_blocked_does_not_allocate(self):
        c = ResilienceController(ResilienceConfig())
        assert not c.target_blocked("p2.xlarge", 0.0)
        assert not c._breakers

    def test_success_on_unknown_target_does_not_allocate(self):
        c = ResilienceController(ResilienceConfig())
        c.record_success("p2.xlarge", 0.0)
        assert not c._breakers

    def test_degraded_tracks_open_breakers(self):
        c = ResilienceController(
            ResilienceConfig(breaker=BreakerPolicy(failure_threshold=1))
        )
        assert not c.degraded(0.0)
        c.record_failure("p2.xlarge", 0.0)
        assert c.degraded(1.0)
        assert c.breaker_state_counts()["open"] == 1
        assert not c.degraded(100.0)  # cooldown elapsed


# ----------------------------------------------------------------------
# Acceptance: retry+breaker beats drop, and never retries past deadline
# ----------------------------------------------------------------------
def _faulted_run(recovery, tracer=None):
    """One molecule_$ BERT run under the resilience experiment's stochastic
    crash spec (intensity 2.0), varying only the recovery policy."""
    model = get_model("bert")
    profiles = ProfileService()
    slo = SLO(SLO_SECONDS)
    trace = azure_trace(peak_rps=model.peak_rps, duration=240.0, seed=1)
    policy = make_policy(
        "molecule_$", model, profiles, slo.target_seconds, trace
    )
    config = RunConfig(
        chaos=chaos_for(2.0),
        resilience=ResilienceConfig(recovery=recovery),
    )
    return ServerlessRun(
        model, trace, policy, profiles, slo, config, tracer=tracer
    ).execute()


class TestFaultedRunAcceptance:
    @pytest.fixture(scope="class")
    def retry_run(self):
        tracer = Tracer()
        result = _faulted_run("retry", tracer=tracer)
        return result, tracer

    @pytest.fixture(scope="class")
    def drop_run(self):
        return _faulted_run("drop")

    def test_retry_beats_drop_strictly(self, retry_run, drop_run):
        retried, _ = retry_run
        assert retried.retries_scheduled > 0
        assert retried.slo_compliance > drop_run.slo_compliance
        assert drop_run.requests_dropped > 0

    def test_no_retry_dispatched_past_deadline(self, retry_run):
        _, tracer = retry_run
        dispatches = tracer.events_named("retry.dispatch")
        assert dispatches  # the spec did force retries
        for ev in dispatches:
            assert ev.time < ev.attrs["deadline"]

    def test_no_retry_scheduled_past_deadline(self, retry_run):
        _, tracer = retry_run
        for ev in tracer.events_named("retry.schedule"):
            assert ev.time + ev.attrs["delay"] < ev.attrs["deadline"]

    def test_counters_surface_in_result(self, retry_run, drop_run):
        retried, _ = retry_run
        assert retried.requests_dropped == 0
        assert drop_run.retries_scheduled == 0
        total = (
            retried.completed_requests + retried.unserved_requests
        )
        assert total == retried.offered_requests

    def test_prometheus_exports_resilience_gauges(self, retry_run):
        _, tracer = retry_run
        lines = to_prometheus_text(tracer).splitlines()
        for gauge in (
            "repro_ts_resilience_retries_scheduled",
            "repro_ts_resilience_retries_abandoned",
            "repro_ts_resilience_requests_shed",
            "repro_ts_resilience_requests_dropped",
            "repro_ts_breaker_open",
            "repro_ts_breaker_half_open",
        ):
            assert any(line.startswith(gauge + " ") for line in lines), gauge
        assert not any(line.startswith("repro_resilience_") for line in lines)
