"""One benchmark repetition, run in a fresh process by ``bench/run.py``.

    python bench/child.py WORKLOAD SEED KIND SCRATCH_DIR

``KIND`` is ``plain`` (measured run), ``traced`` (the per-layer wrappers
installed) or ``telemetry_off`` (``faults_observed`` with the program's
telemetry off).  The child prints one JSON object as its last line of
output.  It exits non-zero only when the workload raised; failed output
checks are reported in the JSON.
"""

from time import perf_counter

import json
import resource
import sys
from typing import Any

import layers
import workloads

KINDS = ("plain", "traced", "telemetry_off")


def measure(name: str, seed: int, kind: str, scratch: str,
            scale: float = 1.0) -> dict[str, Any]:
    """Run one repetition in this process and return its record."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    # Set-up is timed from here: the import of the program onwards.
    t0 = perf_counter()
    import repro  # noqa: F401

    import_s = perf_counter() - t0
    with layers.Probe(kind == "traced", t0) as probe:
        outcome = workloads.run(name, seed, scale,
                                telemetry=kind != "telemetry_off",
                                scratch=scratch)
    record = {
        "kind": kind,
        "wall_s": outcome.t_result - t0,
        "setup_s": probe.first_run - t0,
        "offered": outcome.offered,
        "completed": outcome.completed,
        "failures": workloads.check(outcome),
        "digest": workloads.digest(outcome),
        "modelled": workloads.modelled(outcome),
    }
    if kind == "traced":
        record["layers"] = layers.layer_metrics(probe, outcome, import_s)
        record["trace"] = probe.trace_record()
    # ru_maxrss is in KiB on Linux.
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


if __name__ == "__main__":
    _, name, seed, kind, scratch = sys.argv
    print(json.dumps(measure(name, int(seed), kind, scratch)))
