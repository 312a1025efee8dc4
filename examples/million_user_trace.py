#!/usr/bin/env python
"""Serve a full-day, million-request Azure trace through the vectorized core.

This is the scale target the vectorized policy core was built for: a
24-hour Azure-functions-signature trace sized to ~1,000,000 requests,
planned end to end by Paldia's columnar hot path (CandidateTable scan,
batched Equation-(1) solves, memoised window plans) on the tuple-heap
simulator.  The run prints arrival statistics, the headline serving
metrics, and the simulator's own throughput (simulated requests per
wall-clock second).

``--self-profile`` runs the day inside a ``with``
:class:`~repro.telemetry.RunProfiler` block, which frames the program's
methods from outside for the length of the run, and prints the
hierarchical phase table afterwards, so you can see where the planning
time goes at this scale (the policy frames — ``batch.plan`` and
``select.choose_best_HW`` — stay well under a third of the attributed
wall clock).

Run:  python examples/million_user_trace.py                  # ~1M requests (takes a minute or two)
      python examples/million_user_trace.py --requests 50000 --duration 4320
      python examples/million_user_trace.py --self-profile
"""

import argparse
import contextlib
import time

from repro import (
    PaldiaPolicy,
    ProfileService,
    SLO,
    ServerlessRun,
    azure_trace,
    get_model,
)
from repro.analysis import render_kv
from repro.telemetry import RunProfiler
from repro.workloads.traces import AZURE_PEAK_TO_MEAN

FULL_DAY_SECONDS = 86_400.0


def build_trace(requests: int, duration: float, seed: int):
    """An Azure-signature trace sized to an expected request count.

    ``azure_trace`` takes the *peak* rate and shapes the day around it
    with the paper's ~12.2x peak:mean ratio, so the peak that yields
    ``requests`` arrivals in expectation is ``requests * ratio / duration``.
    """
    peak_rps = requests * AZURE_PEAK_TO_MEAN / duration
    return azure_trace(peak_rps=peak_rps, duration=duration, seed=seed)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--requests", type=int, default=1_000_000,
        help="expected arrival count to size the trace for (default: 1M)",
    )
    parser.add_argument(
        "--duration", type=float, default=FULL_DAY_SECONDS,
        help="trace length in simulated seconds (default: one day)",
    )
    parser.add_argument("--model", default="resnet50")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--self-profile", action="store_true",
        help="run under a RunProfiler and print the phase table",
    )
    args = parser.parse_args(argv)

    model = get_model(args.model)
    profiles = ProfileService()
    slo = SLO()

    trace = build_trace(args.requests, args.duration, args.seed)
    print(
        f"trace: {trace.n_requests} requests over "
        f"{args.duration / 3600.0:.1f} h, mean {trace.mean_rps:.1f} rps, "
        f"peak {trace.peak_rps:.0f} rps"
    )

    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    prof = RunProfiler() if args.self_profile else None
    run = ServerlessRun(model, trace, policy, profiles, slo)

    t0 = time.perf_counter()
    with prof or contextlib.nullcontext():
        result = run.execute()
    wall = time.perf_counter() - t0

    print()
    print(
        render_kv(
            {
                "requests completed": result.completed_requests,
                "SLO compliance": f"{100 * result.slo_compliance:.2f}%",
                "P99 latency": f"{result.p99_seconds * 1e3:.1f} ms",
                "total cost": f"${result.total_cost:.2f}",
                "hardware switches": result.n_switches,
                "cold starts": result.cold_starts,
                "wall clock": f"{wall:.1f} s",
                "sim throughput": f"{result.completed_requests / wall:,.0f} req/s",
            },
            title=f"Paldia serving {model.display_name} for a day",
        )
    )

    if prof is not None:
        print()
        print(prof.rendered(top=25))


if __name__ == "__main__":
    main()
