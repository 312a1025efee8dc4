"""Tests of the benchmark harness, not part of the repository's tests.

    PYTHONPATH=src python -m pytest bench/tests

Workloads run in-process at a small ``scale`` (a few simulated seconds),
so the whole file takes well under a minute.
"""

from __future__ import annotations

import importlib
import os
import re
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import child  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCALE = {
    "azure_day": 0.01,
    "fleet_steady": 0.02,
    "faults_observed": 0.02,
    "fig3_sweep": 0.02,
}
SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_every_workload_has_a_test_scale():
    assert set(SCALE) == set(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_pass_and_digest_repeats(name, tmp_path):
    first = workloads.run(name, 3, SCALE[name], scratch=str(tmp_path))
    second = workloads.run(name, 3, SCALE[name], scratch=str(tmp_path))
    assert workloads.check(first) == []
    assert workloads.check(second) == []
    assert first.offered > 0
    assert workloads.digest(first) == workloads.digest(second)


def test_program_telemetry_leaves_the_digest_unchanged(tmp_path):
    scale = SCALE["faults_observed"]
    on = workloads.run("faults_observed", 1, scale, telemetry=True)
    off = workloads.run("faults_observed", 1, scale, telemetry=False)
    assert on.telemetry and not off.telemetry
    assert workloads.digest(on) == workloads.digest(off)


def test_a_failed_check_is_reported():
    outcome = workloads.run("azure_day", 0, SCALE["azure_day"])
    assert workloads.check(outcome) == []
    sizes = outcome.expected_offered()
    outcome.expected_offered = lambda: [n + 1 for n in sizes]
    assert any("trace arrivals" in f for f in workloads.check(outcome))


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metric_names_are_the_declared_ones(trace, tmp_path):
    name = "faults_observed"  # the only workload with every repetition kind
    records = [
        child.measure(name, 0, kind, str(tmp_path), SCALE[name])
        for kind in run.kinds_for(name, trace)
    ]
    summary = run.summarize(records, trace, SPEC)
    assert summary["result"]["correct"], summary["failures"]
    emitted = set(summary["result"]["metrics"])
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert emitted == declared
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in emitted)
    if trace:
        assert summary["result"]["metrics"]["telemetry.calls_when_off"][
            "value"] == 0


def test_telemetry_calls_when_off_counts_zero_calls(tmp_path):
    record = child.measure("azure_day", 0, "traced", str(tmp_path),
                           SCALE["azure_day"])
    assert record["layers"]["telemetry.calls_when_off"] == 0
    assert record["layers"]["framework.windows"] > 0
    assert record["layers"]["paldia.plan_window_calls"] > 0


def _bindings() -> dict[tuple[str, str], object]:
    """Every function bound in a loaded ``repro`` module or class."""
    functions = (types.FunctionType, classmethod, staticmethod)
    found = {}
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in vars(mod).items():
            if isinstance(value, functions):
                found[(mod.__name__, key)] = value
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    if isinstance(raw, functions):
                        found[(mod.__name__, f"{key}.{attr}")] = raw
    return found


def test_wrappers_restore_the_originals(tmp_path):
    for module, _ in layers.TIMED + layers.COUNTED:
        importlib.import_module(module)
    before = _bindings()
    child.measure("fig3_sweep", 0, "traced", str(tmp_path),
                  SCALE["fig3_sweep"])
    after = _bindings()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert changed == []
    leftover = [
        k for k, v in after.items()
        if hasattr(getattr(v, "__func__", v), layers.MARK)
    ]
    assert leftover == []


def test_compare_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    faster = [p * 1.2 for p in parent]
    slower = [p * 0.8 for p in parent]
    same = list(reversed(parent))
    assert compare.verdict(parent, faster, True, 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, True, 0.1)[0] == "REGRESSED"
    assert compare.verdict(parent, same, True, 0.1)[0] == "within bound"
    noisy = [100.0, 150.0] * 5
    assert compare.verdict(noisy, noisy[::-1], True, 0.1)[0] == "unresolved"
    assert compare.verdict(parent, slower, True, None)[0] == "worse"
