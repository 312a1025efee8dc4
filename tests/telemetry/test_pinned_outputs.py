"""Pinned traced outputs: the telemetry exports of two fixed runs.

Every traced export of two configurations is pinned byte for byte:

* ``faults`` -- the benchmark's ``faults_observed`` run shortened to
  300 s (Paldia/resnet50 on a Twitter trace with every chaos fault,
  deadline-aware retry, request trace on), seed 0;
* ``lanes`` -- two Paldia lanes (resnet50 and vgg19, Poisson at peak for
  60 s) on one shared simulator and cluster, each with its own tracer,
  cost meter and request tracer.

For each lane the pins are the Prometheus text (committed as text for
``faults``) and SHA-256 digests of the tracer JSONL, the request-trace
JSONL, the cost breakdown (``breakdown_json`` plus the per-batch
``batch_cost_dollars``) and every time-series column.  A change to how
the pillars record must leave all of them unchanged.

The run is regenerated in-process, so its ids must not depend on what
ran earlier in the process.  Regenerate the pins (only for an intended
output change) with one fresh interpreter per configuration::

    PYTHONPATH=src python tests/telemetry/test_pinned_outputs.py faults
    PYTHONPATH=src python tests/telemetry/test_pinned_outputs.py lanes
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
PINS = DATA / "pinned_outputs.json"
FAULTS_PROM = DATA / "pinned_faults.prom"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _faults_run():
    from repro import PaldiaPolicy, ProfileService, RunConfig, SLO
    from repro import ServerlessRun, get_model, twitter_trace
    from repro.core.resilience import ResilienceConfig
    from repro.simulator.chaos import (
        ChaosSpec, ColdStartFailures, MPSFaults, OOMKills, Slowdowns,
        StochasticCrashes,
    )
    from repro.telemetry.tracer import Tracer
    from repro.workloads.traces import AZURE_PEAK_TO_MEAN

    model = get_model("resnet50")
    trace = twitter_trace(
        mean_rps=5.0 * model.peak_rps / AZURE_PEAK_TO_MEAN,
        duration=300.0, seed=0,
    )
    chaos = ChaosSpec(
        faults=(StochasticCrashes(), Slowdowns(), ColdStartFailures(),
                OOMKills(), MPSFaults()),
        seed=0,
    )
    config = RunConfig(chaos=chaos, resilience=ResilienceConfig(recovery="retry"),
                       reqtrace=True)
    profiles, slo = ProfileService(), SLO()
    run = ServerlessRun(
        model, trace, PaldiaPolicy(model, profiles, slo.target_seconds),
        profiles, slo, config, tracer=Tracer(),
    )
    return [(run, run.execute())]


def _lanes_run():
    from repro import PaldiaPolicy, ProfileService, RunConfig, SLO
    from repro import ServerlessRun, get_model
    from repro.framework.system import DRAIN_GRACE_SECONDS
    from repro.simulator.cluster import Cluster
    from repro.simulator.engine import Simulator
    from repro.telemetry.tracer import Tracer
    from repro.workloads.traces import poisson_trace

    profiles, slo = ProfileService(), SLO()
    config = RunConfig(reqtrace=True)
    sim = Simulator()
    cluster = Cluster(sim, profiles.catalog,
                      interference=profiles.interference, seed=0)
    lanes = []
    for i, name in enumerate(("resnet50", "vgg19")):
        model = get_model(name)
        trace = poisson_trace(rate_rps=model.peak_rps, duration=60.0, seed=i)
        lanes.append(ServerlessRun(
            model, trace, PaldiaPolicy(model, profiles, slo.target_seconds),
            profiles, slo, config, sim=sim, cluster=cluster, tracer=Tracer(),
        ))
    for lane in lanes:
        lane.arm()
    sim.run(until=60.0 + DRAIN_GRACE_SECONDS)
    return [(lane, lane.finalize()) for lane in lanes]


RUNS = {"faults": _faults_run, "lanes": _lanes_run}


def outputs(config: str) -> list[dict]:
    """Each lane's pinned outputs for ``config`` (texts and digests)."""
    from repro.analysis.cost_report import breakdown_json
    from repro.telemetry.exporters import to_jsonl_lines
    from repro.telemetry.prometheus import to_prometheus_text

    out = []
    for run, result in RUNS[config]():
        tracer, obs = run.tracer, run.obs
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "reqtrace.jsonl")
            result.reqtrace.save_jsonl(path)
            reqtrace = Path(path).read_bytes()
        cost = result.cost_breakdown
        cost_record = json.dumps(
            [breakdown_json(cost, total_cost=result.total_cost),
             sorted(cost.batch_cost_dollars.items())]
        )
        sampler = tracer.timeseries
        columns = {"t": _sha(sampler.times().tobytes())}
        columns.update(
            (name, _sha(col.tobytes()))
            for name, col in sampler.columns().items()
        )
        out.append({
            "model": result.model,
            "batches": int(result.reqtrace.meta["n_batches_seen"]),
            "retries": result.retries_scheduled,
            "slo_alerts": sum(
                1 for e in tracer.events if e.name == "slo_alert"
            ),
            "prometheus": to_prometheus_text(
                tracer, monitor=obs.slo_monitor, now=run.sim.now,
                costmeter=obs.costmeter,
            ),
            "tracer_jsonl": _sha(
                "\n".join(to_jsonl_lines(tracer)).encode("utf-8")
            ),
            "reqtrace_jsonl": _sha(reqtrace),
            "cost": _sha(cost_record.encode("utf-8")),
            "timeseries": columns,
        })
    return out


def _pinned(config: str) -> list[dict]:
    lanes = json.loads(PINS.read_text())[config]
    if config == "faults":
        lanes[0]["prometheus"] = FAULTS_PROM.read_text()
    return lanes


@pytest.mark.parametrize("config", sorted(RUNS))
def test_traced_outputs_match_the_pins(config):
    got, want = outputs(config), _pinned(config)
    assert len(got) == len(want)
    for lane, pinned in zip(got, want):
        if config != "faults":  # only the faults text is committed
            lane["prometheus"] = _sha(lane["prometheus"].encode("utf-8"))
        for key, value in pinned.items():
            assert lane[key] == value, f"{config}/{lane['model']}: {key}"


def test_faults_pins_cover_retries_and_alerts():
    (lane,) = _pinned("faults")
    assert (lane["batches"], lane["retries"], lane["slo_alerts"]) == \
        (4255, 12, 14)


def test_faults_request_trace_reads_back_byte_for_byte(tmp_path):
    # The pinned request trace, read back and saved again, is the same
    # file: the reader fills the columns the live trace holds.
    from repro.telemetry.reqtrace import read_reqtrace

    ((_, result),) = _faults_run()
    saved, again = tmp_path / "saved.jsonl", tmp_path / "again.jsonl"
    result.reqtrace.save_jsonl(str(saved))
    assert _sha(saved.read_bytes()) == _pinned("faults")[0]["reqtrace_jsonl"]
    read_reqtrace(str(saved)).save_jsonl(str(again))
    assert again.read_bytes() == saved.read_bytes()


def _write(config: str) -> None:
    lanes = outputs(config)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for lane in lanes:
        if config == "faults":
            FAULTS_PROM.write_text(lane.pop("prometheus"))
        else:
            lane["prometheus"] = _sha(lane["prometheus"].encode("utf-8"))
    pins[config] = lanes
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write(sys.argv[1])
