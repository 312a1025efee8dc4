"""Integration: runs are bit-reproducible for a fixed seed."""

import pytest

from repro.core.paldia import PaldiaPolicy
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.framework.slo import SLO
from repro.telemetry import Tracer
from repro.telemetry.exporters import to_jsonl_lines
from repro.workloads.models import get_model
from repro.workloads.traces import azure_trace, poisson_trace


def one_run(seed):
    model = get_model("resnet50")
    profiles = ProfileService()
    slo = SLO()
    trace = azure_trace(peak_rps=model.peak_rps, duration=150.0, seed=seed)
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    return ServerlessRun(
        model, trace, policy, profiles, slo, RunConfig(seed=seed)
    ).execute()


class TestDeterminism:
    def test_identical_seeds_identical_results(self):
        a, b = one_run(13), one_run(13)
        assert a.slo_compliance == b.slo_compliance
        assert a.total_cost == b.total_cost
        assert a.p99_seconds == b.p99_seconds
        assert a.switch_log == b.switch_log
        assert a.mode_split == b.mode_split

    def test_different_seeds_differ(self):
        a, b = one_run(13), one_run(14)
        assert (
            a.offered_requests != b.offered_requests
            or a.total_cost != b.total_cost
        )


def traced_outputs(tmp_path, name):
    """Request-trace and tracer JSONL of a sampled traced run."""
    model = get_model("resnet50")
    profiles, slo = ProfileService(), SLO()
    trace = poisson_trace(rate_rps=model.peak_rps, duration=20.0, seed=0)
    run = ServerlessRun(
        model, trace, PaldiaPolicy(model, profiles, slo.target_seconds),
        profiles, slo, RunConfig(reqtrace=True, reqtrace_sample=0.25),
        tracer=Tracer(),
    )
    result = run.execute()
    path = tmp_path / f"{name}.reqtrace.jsonl"
    result.reqtrace.save_jsonl(str(path))
    return path.read_text(), "\n".join(to_jsonl_lines(run.tracer))


def test_traced_outputs_do_not_depend_on_earlier_runs(tmp_path):
    # Batch and node ids are numbered by the run's cluster, so a second
    # identical run in the same process samples the same batches (the
    # request tracer samples on (seed, batch_id)) and exports the same
    # bytes.
    first = traced_outputs(tmp_path, "first")
    second = traced_outputs(tmp_path, "second")
    assert first[0] == second[0]
    assert first[1] == second[1]
