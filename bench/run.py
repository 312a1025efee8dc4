"""Run the repository benchmark and print every metric with its unit.

    python bench/run.py [--workload NAME ...] [--seed S] [--seconds T]
                        [--trace [0|1]] [--out FILE]

Each repetition is a fresh ``python bench/child.py`` process (so it pays
the import and set-up a user pays, and its peak RSS is its own), one at a
time, single-threaded.  A workload gets ``--seconds`` of repetitions
(default: ``run_seconds`` of ``BENCHMARK.json``); with several workloads
the repetitions go round-robin, so machine drift hits all of them alike.

``--trace 0`` (default) reports the end-to-end metrics of
``BENCHMARK.json``, medians over the repetitions.  ``--trace 1`` (or bare
``--trace``) alternates untraced and traced repetitions and reports the
per-layer metrics, medians over the traced ones; each traced
repetition's per-site aggregates and spans are written to
``.bench_out/trace_<workload>_seed<S>.json``.

Every repetition's outputs are checked (``bench/workloads.py``).  The
last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with several workloads it maps
each workload to such an object.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Optional

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")
#: A workload's repetitions are killed past this many seconds in total,
#: so a one-workload run exits within 180 s even if a child hangs.
DEADLINE_SECONDS = 170.0


def load_spec() -> dict[str, Any]:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); the single value three times for one sample."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class ChildError(RuntimeError):
    """A repetition's process failed or printed no result."""


def run_child(name: str, seed: int, kind: str, scratch: str,
              timeout: float) -> dict[str, Any]:
    env = dict(
        os.environ,
        PYTHONPATH=SRC,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=scratch,
    )
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), name, str(seed),
           kind, scratch]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{name} ({kind}) exceeded {timeout:.0f} s") from exc
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(
            f"{name} ({kind}) exited with {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    record = json.loads(lines[-1])
    record["elapsed_s"] = elapsed
    return record


def kinds_for(name: str, trace: bool) -> list[str]:
    """The cycle of repetition kinds a workload runs."""
    if not trace:
        return ["plain"]
    if name in workloads.TELEMETRY_ON:
        return ["plain", "traced", "telemetry_off"]
    return ["plain", "traced"]


def run_workloads(names: list[str], seed: int, seconds: float, trace: bool,
                  scratch: str) -> dict[str, list[dict[str, Any]]]:
    """Repetitions round-robin over ``names`` until each workload's
    ``seconds`` are used.  A repetition starts only when the longest one
    of its kind so far still fits; one cycle of kinds always runs."""
    reps: dict[str, list[dict[str, Any]]] = {n: [] for n in names}
    used = {n: 0.0 for n in names}
    cycles = {n: kinds_for(n, trace) for n in names}
    active = list(names)
    while active:
        for name in list(active):
            done = reps[name]
            kind = cycles[name][len(done) % len(cycles[name])]
            longest = max(
                (r["elapsed_s"] for r in done if r["kind"] == kind),
                default=None,
            )
            if longest is not None and used[name] + longest > seconds:
                active.remove(name)
                continue
            record = run_child(name, seed, kind, scratch,
                               DEADLINE_SECONDS - used[name])
            used[name] += record["elapsed_s"]
            done.append(record)
    return reps


def summarize(records: list[dict[str, Any]], trace: bool,
              spec: dict[str, Any]) -> dict[str, Any]:
    """Contract result of one workload plus the details behind it."""
    plain = [r for r in records if r["kind"] == "plain"]
    failures = sorted({f for r in records for f in r["failures"]})
    attempted = sum(r["offered"] for r in records)
    failed = sum(r["offered"] for r in records if r["failures"])
    digests = {r["digest"] for r in records}
    if len(digests) > 1:
        failures.append(
            f"output digest differs across repetitions: {sorted(digests)}"
        )
        failed = attempted

    if trace:
        declared = spec["per_layer"]
        traced = [r for r in records if r["kind"] == "traced"]
        values = {
            metric: [r["layers"][metric] for r in traced]
            for metric in traced[0]["layers"]
        }
        walls = statistics.median(r["wall_s"] for r in plain)
        values["trace.overhead"] = [
            statistics.median(r["wall_s"] for r in traced) / walls - 1.0
        ]
        off = [r["wall_s"] for r in records if r["kind"] == "telemetry_off"]
        values["telemetry.overhead"] = [
            walls / statistics.median(off) - 1.0 if off else 0.0
        ]
    else:
        declared = spec["end_to_end"]
        values = {
            "sim_rps": [r["completed"] / r["wall_s"] for r in plain],
            "setup_s": [r["setup_s"] for r in plain],
            "peak_rss_mb": [r["rss_mb"] for r in plain],
        }
    metrics, spread = {}, {}
    for m in declared:
        q1, med, q3 = quartiles(values[m["name"]])
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        spread[m["name"]] = {"q1": q1, "q3": q3, "n": len(values[m["name"]])}
    return {
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "spread": spread,
        "failures": failures,
        "digest": sorted(digests)[0],
        "modelled": plain[0]["modelled"],
        "reps": [
            {k: v for k, v in r.items() if k not in ("layers", "trace")}
            for r in records
        ],
    }


def render(name: str, summary: dict[str, Any], seed: int) -> str:
    result = summary["result"]
    kinds = [r["kind"] for r in summary["reps"]]
    counts = ", ".join(f"{kinds.count(k)} {k}" for k in dict.fromkeys(kinds))
    lines = [
        f"== {name} (seed {seed}): {counts} repetitions, "
        f"digest {summary['digest']}, "
        + ("checks passed" if result["correct"] else "CHECKS FAILED"),
    ]
    lines += [f"   ! {f}" for f in summary["failures"]]
    width = max(len(k) for k in result["metrics"])
    for metric, entry in result["metrics"].items():
        s = summary["spread"][metric]
        lines.append(
            f"   {metric:<{width}}  {entry['value']:>14.6g} {entry['unit']:<8}"
            f" q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}"
        )
    lines.append(
        f"   {'ops':<{width}}  {result['attempted']:>14d} requests offered,"
        f" {result['failed']} failed"
    )
    modelled = ", ".join(
        f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
        for k, v in summary["modelled"].items()
    )
    lines.append(f"   modelled (not gated): {modelled}")
    return "\n".join(lines)


def environment(seed: int) -> dict[str, Any]:
    """Where and how a run was made, for ``--out``."""
    commit: Optional[str] = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed,
    }


def main(argv: Optional[list[str]] = None) -> int:
    program = os.path.join(SRC, "repro", "__init__.py")
    if not (os.path.isfile(SPEC_PATH) and os.path.isfile(program)):
        print("error: run from a checkout holding BENCHMARK.json and "
              "src/repro", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="repetition time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write every repetition and summary "
                                      "as JSON to this file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (numpy seeds are non-negative)")
    selected = list(dict.fromkeys(args.workload or names))
    trace = bool(args.trace)

    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        reps = run_workloads(selected, args.seed, args.seconds, trace,
                             scratch)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summaries = {n: summarize(reps[n], trace, spec) for n in selected}
    for name in selected:
        print(render(name, summaries[name], args.seed))
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        for name in selected:
            path = os.path.join(out_dir, f"trace_{name}_seed{args.seed}.json")
            with open(path, "w") as fh:
                json.dump([r["trace"] for r in reps[name]
                           if r["kind"] == "traced"], fh)
            print(f"   trace of {name}: {os.path.relpath(path, ROOT)}")
    if args.out:
        report = dict(environment(args.seed), seconds=args.seconds,
                      trace=int(trace), workloads=summaries)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    results = {n: summaries[n]["result"] for n in selected}
    print(json.dumps(results[selected[0]] if len(selected) == 1
                     else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
