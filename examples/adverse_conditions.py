#!/usr/bin/env python
"""Stress Paldia under the paper's adverse scenarios (Fig 13, Table III).

Runs three short studies on DenseNet 121 / GoogleNet:
1. periodic node failures (1 minute down out of every 2),
2. resource exhaustion (a Poisson storm pinned to the V100),
3. SeBS co-location (regular CPU-bound serverless functions sharing hosts).

Run:  python examples/adverse_conditions.py
"""

from repro import (
    PaldiaPolicy,
    ProfileService,
    SLO,
    ServerlessRun,
    azure_trace,
    get_model,
    poisson_trace,
)
from repro.analysis import render_table
from repro.framework.system import RunConfig
from repro.hardware.catalog import default_catalog
from repro.simulator.chaos import ChaosSpec, PeriodicOutage


def run_one(model, trace, profiles, config) -> list:
    slo = SLO()
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    r = ServerlessRun(model, trace, policy, profiles, slo, config).execute()
    return [
        f"{100 * r.slo_compliance:.2f}",
        f"{r.p99_seconds * 1e3:.1f}",
        f"{r.total_cost:.4f}",
        r.n_switches,
    ]


def main() -> None:
    profiles = ProfileService()
    rows = []

    densenet = get_model("densenet121")
    trace = azure_trace(peak_rps=densenet.peak_rps, duration=300.0, seed=5)
    rows.append(["baseline", "densenet121"] + run_one(
        densenet, trace, profiles, RunConfig()
    ))
    rows.append(["node failures", "densenet121"] + run_one(
        densenet, trace, profiles,
        RunConfig(chaos=ChaosSpec(faults=(PeriodicOutage(120.0, 60.0, 60.0),))),
    ))
    rows.append(["SeBS co-location", "densenet121"] + run_one(
        densenet, trace, profiles, RunConfig(sebs_colocation=True)
    ))

    googlenet = get_model("googlenet")
    v100_only = ProfileService(default_catalog().restricted(["p3.2xlarge"]))
    storm = poisson_trace(1250.0, duration=180.0, seed=5)
    rows.append(["resource exhaustion", "googlenet"] + run_one(
        googlenet, storm, v100_only, RunConfig()
    ))

    print(
        render_table(
            ["scenario", "model", "SLO %", "P99 ms", "cost $", "switches"],
            rows,
            title="Paldia under adverse conditions",
        )
    )


if __name__ == "__main__":
    main()
