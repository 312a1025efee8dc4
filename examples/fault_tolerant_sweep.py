#!/usr/bin/env python
"""Fault-tolerant sweep: chaos-injected executors, retries, and the ledger.

Runs a small (scheme x model) matrix twice — once cleanly on the serial
backend, once under a :class:`ChaosExecutor` that deterministically
crashes and breaks cells — and shows that the fault policy (retry with
decorrelated-jitter backoff) converges the chaotic run to bit-identical
results.  The chaotic run's executor stats (retries, timeouts, worker
crashes survived) are then recorded in the SQLite run ledger as extra
metrics next to the ones each run result carries.

Run:  PYTHONPATH=src python examples/fault_tolerant_sweep.py
"""

import os
import tempfile

from repro.analysis.report import render_kv
from repro.experiments.executors import (
    CellFaultPolicy,
    ChaosExecutor,
    SerialExecutor,
)
from repro.experiments.runner import run_matrix
from repro.telemetry.ledger import RunLedger
from repro.workloads.traces import constant_trace


def tiny_trace(model, seed):
    return constant_trace(20.0, 30.0)


def main() -> None:
    kw = dict(
        schemes=("paldia", "molecule_$"),
        model_names=["resnet50"],
        trace_factory=tiny_trace,
        repetitions=2,
        cache=False,
    )

    print("clean run (serial executor)...")
    clean = run_matrix(executor=SerialExecutor(), **kw)

    print("chaotic run (40% of cells crash, 10% raise)...")
    chaos = run_matrix(
        executor=ChaosExecutor(
            SerialExecutor(), seed=11, crash_rate=0.4, exception_rate=0.1,
        ),
        fault_policy=CellFaultPolicy(
            max_attempts=3,
            base_backoff_seconds=0.01,
            max_backoff_seconds=0.1,
        ),
        **kw,
    )

    identical = all(
        a.slo_compliance == b.slo_compliance and a.total_cost == b.total_cost
        for a, b in zip(clean.results, chaos.results)
    )
    print(
        render_kv(
            {
                "cells": len(chaos.results),
                "cell retries": chaos.cell_retries,
                "worker crashes survived": chaos.worker_crashes,
                "cell timeouts": chaos.cell_timeouts,
                "bit-identical to clean run": identical,
            },
            title="chaotic sweep, converged",
        )
    )
    assert identical, "retried cells must reproduce the clean results"

    # Record one row per (scheme, model) with the sweep's executor
    # stats as extra ledger metrics.
    ledger_path = os.path.join(tempfile.mkdtemp(), "ledger.sqlite")
    with RunLedger(ledger_path) as ledger:
        for scheme in kw["schemes"]:
            runs = chaos.cell_runs(scheme, "resnet50")
            row = ledger.record(
                runs[0],
                trace="constant-20rps",
                seed=1,
                cell_retries=chaos.cell_retries,
                cell_timeouts=chaos.cell_timeouts,
                worker_crashes=chaos.worker_crashes,
            )
            rec = ledger.get(row)
            print(
                f"ledger row #{row}: {rec.scheme}/{rec.model} — "
                f"{rec.metric('cell_retries')} retries, "
                f"{rec.metric('worker_crashes')} crashes survived"
            )
    print(f"ledger written to {ledger_path}")


if __name__ == "__main__":
    main()
