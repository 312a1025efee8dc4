"""Executor gates: zero disabled-path overhead and serial/pool identity.

Two contracts from the fault-tolerance PR:

* **Zero disabled overhead** — a plain ``run_matrix`` call with no
  fault policy and no chaos wrapper executes no code from the chaos
  module and constructs no ``CellFaultPolicy``.
  Gated on *work executed* (deterministic call counts via
  ``sys.setprofile``), the same way the self-profiler and cost-meter
  disabled paths are gated.
* **Serial/pool bit-identity** — every cell is a pure function of its
  spec, so the pool backend must reproduce the serial backend's results
  exactly (not approximately), fault machinery or not.
"""

import multiprocessing
import sys

from repro.experiments import executors as _executors  # noqa: F401 - preimport
from repro.experiments.executors import (
    CellFaultPolicy,
    ChaosExecutor,
    LocalPoolExecutor,
    SerialExecutor,
)
from repro.experiments.executors import base as base_mod
from repro.experiments.executors import chaos as chaos_mod
from repro.experiments.runner import run_matrix
from repro.workloads.traces import constant_trace


def _tiny_trace(model, seed):
    return constant_trace(10.0, 10.0)


_KW = dict(
    schemes=("paldia",),
    model_names=["resnet50"],
    trace_factory=_tiny_trace,
    repetitions=2,
    cache=False,
)


def profile_files(fn, filenames):
    """Python-level call counts per file executed by ``fn``, plus the
    number of ``CellFaultPolicy`` constructions (its ``__post_init__``
    runs on every one)."""
    counts = {f: 0 for f in filenames}
    policy_ctors = 0

    def profiler(frame, event, arg):
        nonlocal policy_ctors
        if event != "call":
            return
        fname = frame.f_code.co_filename
        if fname in counts:
            counts[fname] += 1
            if (
                fname == base_mod.__file__
                and frame.f_code.co_name == "__post_init__"
            ):
                policy_ctors += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts, policy_ctors


def test_disabled_path_runs_no_fault_machinery():
    files = (chaos_mod.__file__, base_mod.__file__)
    _, counts, policy_ctors = profile_files(
        lambda: run_matrix(executor=SerialExecutor(), **_KW), files
    )
    print(f"\ndisabled-path calls: chaos={counts[chaos_mod.__file__]}, "
          f"policy ctors={policy_ctors}")
    assert counts[chaos_mod.__file__] == 0
    assert policy_ctors == 0


def test_enabled_path_is_observable():
    """The same profiler does count work when the machinery is on —
    guards against the gate silently measuring nothing."""
    policy = CellFaultPolicy(
        max_attempts=2, base_backoff_seconds=0.0,
        max_backoff_seconds=0.0, jitter=False,
    )
    chaos = ChaosExecutor(
        SerialExecutor(), crash_cells=(0,), crash_rate=0.0,
        exception_rate=0.0,
    )
    _, counts, _ = profile_files(
        lambda: run_matrix(executor=chaos, fault_policy=policy, **_KW),
        (chaos_mod.__file__,),
    )
    assert counts[chaos_mod.__file__] > 0


def test_pool_bit_identical_to_serial():
    serial = run_matrix(executor=SerialExecutor(), **_KW)
    pool = run_matrix(
        executor=LocalPoolExecutor(
            max_workers=2,
            mp_context=multiprocessing.get_context("fork"),
        ),
        **_KW,
    )
    assert len(serial.results) == len(pool.results)
    for a, b in zip(serial.results, pool.results):
        assert a.slo_compliance == b.slo_compliance
        assert a.total_cost == b.total_cost
        assert a.p50_seconds == b.p50_seconds
        assert a.p99_seconds == b.p99_seconds
