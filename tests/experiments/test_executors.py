"""Tests for the pluggable fault-tolerant executor layer.

Fast unit tests drive the executors with a monkeypatched ``run_cell``
(no simulation); the bit-identity and pool-crash tests run small real
matrices, since chaos convergence to the fault-free result is the
headline contract of the robustness PR.
"""

import dataclasses
import multiprocessing

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.cache import ResultCache
from repro.experiments.executors import (
    EXECUTOR_METRICS,
    CellExecutionError,
    CellFaultPolicy,
    ChaosExecutor,
    ExecutionSettings,
    LocalPoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.experiments.runner import CellSpec, run_matrix
from repro.workloads.traces import constant_trace


def _tiny_trace(model, seed):
    return constant_trace(10.0, 10.0)


@dataclasses.dataclass
class _FakeResult:
    scheme: str
    model: str
    seed: int
    payload: float = 0.0


def _fake_run_cell(spec):
    return _FakeResult(
        spec.scheme, spec.model_name, spec.seed, payload=spec.seed * 1.5
    )


def _specs(n, scheme="paldia"):
    return [
        CellSpec(scheme, "resnet50", seed, _tiny_trace)
        for seed in range(1, n + 1)
    ]


#: A zero-sleep policy for tests that only care about classification.
_FAST_POLICY = CellFaultPolicy(
    max_attempts=3, base_backoff_seconds=0.0, max_backoff_seconds=0.0,
    jitter=False,
)


class TestSerialExecutor:
    def test_yields_in_order_without_policy(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "run_cell", _fake_run_cell)
        outs = list(SerialExecutor().submit(_specs(3)))
        assert [o.index for o in outs] == [0, 1, 2]
        assert all(o.ok and o.attempts == 1 for o in outs)
        assert [o.result.seed for o in outs] == [1, 2, 3]

    def test_injected_crash_is_retried(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "run_cell", _fake_run_cell)
        ex = ChaosExecutor(
            SerialExecutor(), crash_cells=(0,), crash_rate=0.0,
            exception_rate=0.0,
        )
        outs = list(ex.submit(_specs(2), _FAST_POLICY))
        assert outs[0].ok and outs[0].attempts == 2 and outs[0].crashes == 1
        assert outs[1].ok and outs[1].attempts == 1

    def test_exhausted_attempts_fail_terminally(self, monkeypatch):
        def always_raises(spec):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner_mod, "run_cell", always_raises)
        policy = dataclasses.replace(_FAST_POLICY, max_attempts=2)
        (out,) = SerialExecutor().submit(_specs(1), policy)
        assert not out.ok
        assert out.failure_kind == "exception"
        assert out.attempts == 2 and out.exceptions == 2
        assert "boom" in out.error

    def test_injected_straggler_times_out_then_recovers(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "run_cell", _fake_run_cell)
        policy = dataclasses.replace(
            _FAST_POLICY, cell_timeout_seconds=0.02
        )
        ex = ChaosExecutor(
            SerialExecutor(), timeout_cells=(0,), crash_rate=0.0,
            exception_rate=0.0,
        )
        (out,) = ex.submit(_specs(1), policy)
        assert out.ok
        assert out.timeouts == 1 and out.attempts == 2

    def test_no_policy_single_attempt(self, monkeypatch):
        def always_raises(spec):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner_mod, "run_cell", always_raises)
        (out,) = SerialExecutor().submit(_specs(1))
        assert not out.ok and out.attempts == 1


class TestFaultPolicy:
    def test_backoff_is_deterministic_per_cell(self):
        policy = CellFaultPolicy(seed=7)
        a = policy.backoff_rng(3)
        b = policy.backoff_rng(3)
        assert [a.random() for _ in range(4)] == [
            b.random() for _ in range(4)
        ]

    def test_backoff_bounded_by_cap(self):
        policy = CellFaultPolicy(
            base_backoff_seconds=0.5, max_backoff_seconds=1.0, jitter=False
        )
        prev = 0.0
        for _ in range(6):
            prev = policy.next_backoff(prev, None)
            assert 0.5 <= prev <= 1.0
        assert prev == 1.0  # envelope saturates at the cap

    def test_validation(self):
        with pytest.raises(ValueError):
            CellFaultPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            CellFaultPolicy(cell_timeout_seconds=-1.0)
        with pytest.raises(ValueError):
            ExecutionSettings(on_cell_failure="explode")


class TestChaosExecutor:
    def test_plan_is_deterministic_in_seed(self):
        a = ChaosExecutor(SerialExecutor(), seed=5, crash_rate=0.5)
        b = ChaosExecutor(SerialExecutor(), seed=5, crash_rate=0.5)
        plan_a = [a._planned_kind(i) for i in range(50)]
        plan_b = [b._planned_kind(i) for i in range(50)]
        assert plan_a == plan_b
        assert "crash" in plan_a  # 50 draws at 50% cannot all miss

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChaosExecutor(SerialExecutor(), crash_rate=0.9, exception_rate=0.9)
        with pytest.raises(ValueError):
            ChaosExecutor(SerialExecutor(), faults_per_cell=0)

    def test_make_executor_names(self):
        assert make_executor("serial").name == "serial"
        assert make_executor("pool").name == "pool"
        assert make_executor("chaos-serial").name == "chaos(serial)"
        with pytest.raises(ValueError):
            make_executor("lithops")


class TestRunMatrixIntegration:
    _KW = dict(
        schemes=("paldia",),
        model_names=["resnet50"],
        trace_factory=_tiny_trace,
        repetitions=2,
        cache=False,
    )

    def test_chaos_serial_bit_identical_to_serial(self):
        clean = run_matrix(executor=SerialExecutor(), **self._KW)
        chaos = run_matrix(
            executor=ChaosExecutor(
                SerialExecutor(), crash_cells=(0,), exception_cells=(1,),
                crash_rate=0.0, exception_rate=0.0,
            ),
            fault_policy=_FAST_POLICY,
            **self._KW,
        )
        assert chaos.cell_retries == 2
        assert chaos.complete
        for a, b in zip(clean.results, chaos.results):
            assert a.slo_compliance == b.slo_compliance
            assert a.total_cost == b.total_cost
            assert a.p99_seconds == b.p99_seconds

    def test_skip_records_holes_and_summary_rejects(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "run_cell", _fake_run_cell)
        chaos = ChaosExecutor(
            SerialExecutor(), crash_cells=(0,), crash_rate=0.0,
            exception_rate=0.0, faults_per_cell=99,
        )
        policy = dataclasses.replace(_FAST_POLICY, max_attempts=2)
        m = run_matrix(
            executor=chaos, fault_policy=policy, on_cell_failure="skip",
            **self._KW,
        )
        assert not m.complete
        assert len(m.failed_cells) == 1
        assert m.results[0] is None
        assert m.failed_cells[0].kind == "crash"
        assert m.failed_cells[0].attempts == 2
        with pytest.raises(CellExecutionError) as exc:
            m.summary("paldia", "resnet50")
        assert "crash" in str(exc.value)

    def test_fail_mode_raises_with_failure_details(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "run_cell", _fake_run_cell)
        chaos = ChaosExecutor(
            SerialExecutor(), crash_cells=(0,), crash_rate=0.0,
            exception_rate=0.0, faults_per_cell=99,
        )
        policy = dataclasses.replace(_FAST_POLICY, max_attempts=2)
        with pytest.raises(CellExecutionError) as exc:
            run_matrix(
                executor=chaos, fault_policy=policy,
                on_cell_failure="fail", **self._KW,
            )
        assert len(exc.value.failures) == 1
        assert exc.value.failures[0].scheme == "paldia"

    def test_chaos_pool_survives_worker_crash(self):
        respawns = EXECUTOR_METRICS.counter("executor.pool_respawn")
        before = respawns.value
        clean = run_matrix(executor=SerialExecutor(), **self._KW)
        pool = LocalPoolExecutor(
            max_workers=2,
            mp_context=multiprocessing.get_context("fork"),
        )
        chaos = run_matrix(
            executor=ChaosExecutor(
                pool, crash_cells=(0,), crash_rate=0.0, exception_rate=0.0,
            ),
            # Generous attempts: a pool crash also charges collateral
            # in-flight cells an attempt.
            fault_policy=dataclasses.replace(_FAST_POLICY, max_attempts=5),
            **self._KW,
        )
        assert chaos.complete
        assert chaos.worker_crashes >= 1
        assert respawns.value >= before + 1
        for a, b in zip(clean.results, chaos.results):
            assert a.slo_compliance == b.slo_compliance
            assert a.total_cost == b.total_cost


class TestResume:
    def test_interrupt_then_resume_recomputes_nothing_done(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(str(tmp_path / "cache"))
        kw = dict(
            schemes=("paldia",), model_names=["resnet50"],
            trace_factory=_tiny_trace, repetitions=4,
            executor=SerialExecutor(),
        )

        calls = {"n": 0}

        def interrupts_on_third(spec):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return _fake_run_cell(spec)

        monkeypatch.setattr(runner_mod, "run_cell", interrupts_on_third)
        with pytest.raises(KeyboardInterrupt):
            run_matrix(cache=cache, **kw)
        assert calls["n"] == 3  # two completed, third interrupted

        recomputed = {"n": 0}

        def counting(spec):
            recomputed["n"] += 1
            return _fake_run_cell(spec)

        monkeypatch.setattr(runner_mod, "run_cell", counting)
        m = run_matrix(cache=cache, **kw)  # the same call, run again
        assert m.complete
        assert recomputed["n"] == 2  # only the cells the interrupt lost
        assert m.cache_hits == 2
