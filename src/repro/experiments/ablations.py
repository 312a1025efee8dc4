"""Ablations of the design choices DESIGN.md calls out.

Not a paper figure — these benches justify Paldia's knobs:

* ``hysteresis``     — wait_limit (escalation) x wait_limit_down sweeps;
* ``perf_slack``     — the ~50 ms choose_best window;
* ``keep_alive``     — delayed-termination duration vs cold starts;
* ``contention_awareness`` — the contention-aware model (the paper's
  future work) under SeBS co-location.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.paldia import PaldiaPolicy
from repro.experiments.base import ExperimentReport
from repro.experiments.registry import register_experiment
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.workloads.models import get_model
from repro.workloads.traces import azure_trace

__all__ = [
    "run_hysteresis", "run_perf_slack", "run_keep_alive",
    "run_contention_awareness", "run",
]

MODEL = "resnet50"


def _one(policy_kwargs: dict, config: RunConfig, duration: float, seed: int):
    model = get_model(MODEL)
    trace = azure_trace(peak_rps=model.peak_rps, duration=duration, seed=seed)
    profiles = ProfileService()
    slo = SLO()
    policy = PaldiaPolicy(model, profiles, slo.target_seconds, **policy_kwargs)
    return ServerlessRun(
        model, trace, policy, profiles, slo, replace(config, seed=seed)
    ).execute()


def run_hysteresis(duration: float = 600.0, seed: int = 1) -> ExperimentReport:
    """Sweep the wait_ctr limits (Algorithm 1's 3-strike rule)."""
    rows = []
    for up in (1, 3, 6):
        for down in (3, 10, 20):
            r = _one(
                {"wait_limit": up, "wait_limit_down": down},
                RunConfig(),
                duration,
                seed,
            )
            rows.append(
                [up, down, round(100 * r.slo_compliance, 2),
                 round(r.total_cost, 4), r.n_switches]
            )
    return ExperimentReport(
        experiment_id="ablation_hysteresis",
        title="Hysteresis sweep (wait_limit up/down)",
        headers=["wait_up", "wait_down", "slo_%", "cost_$", "switches"],
        rows=rows,
    )


def run_perf_slack(duration: float = 600.0, seed: int = 1) -> ExperimentReport:
    """Sweep choose_best's cost/performance slack (~50 ms in the paper)."""
    rows = []
    for slack_ms in (0.0, 25.0, 50.0, 100.0):
        r = _one(
            {"perf_slack_seconds": slack_ms / 1e3}, RunConfig(), duration, seed
        )
        rows.append(
            [slack_ms, round(100 * r.slo_compliance, 2),
             round(r.total_cost, 4), r.n_switches]
        )
    return ExperimentReport(
        experiment_id="ablation_perf_slack",
        title="choose_best performance-slack sweep",
        headers=["slack_ms", "slo_%", "cost_$", "switches"],
        rows=rows,
    )


def run_keep_alive(duration: float = 600.0, seed: int = 1) -> ExperimentReport:
    """Delayed termination: keep-alive duration vs cold starts.

    The paper reports delayed termination (+batching) cuts cold starts by
    up to 98% versus immediate scale-down.
    """
    rows = []
    for keep_alive in (0.0, 30.0, 120.0, 600.0):
        r = _one({}, RunConfig(keep_alive_seconds=keep_alive), duration, seed)
        rows.append(
            [keep_alive, round(100 * r.slo_compliance, 2), r.cold_starts,
             round(r.total_cost, 4)]
        )
    return ExperimentReport(
        experiment_id="ablation_keep_alive",
        title="Delayed-termination window vs cold starts",
        headers=["keep_alive_s", "slo_%", "cold_starts", "cost_$"],
        rows=rows,
    )


def run_contention_awareness(
    duration: float = 600.0, seed: int = 1
) -> ExperimentReport:
    """The paper's future-work extension under Table III co-location.

    Compares stock Paldia against :class:`ContentionAwarePaldiaPolicy`
    with SeBS functions sharing the hosts."""
    from repro.core.contention import ContentionAwarePaldiaPolicy

    model = get_model(MODEL)
    profiles = ProfileService()
    slo = SLO()
    trace = azure_trace(peak_rps=model.peak_rps, duration=duration, seed=seed)
    config = RunConfig(sebs_colocation=True, sebs_invocation_rps=6.0, seed=seed)
    rows = []
    for label, cls in (
        ("paldia", PaldiaPolicy),
        ("paldia_contention_aware", ContentionAwarePaldiaPolicy),
    ):
        policy = cls(model, profiles, slo.target_seconds)
        r = ServerlessRun(model, trace, policy, profiles, slo, config).execute()
        rows.append(
            [label, round(100 * r.slo_compliance, 2), round(r.total_cost, 4),
             r.n_switches]
        )
    return ExperimentReport(
        experiment_id="ablation_contention_awareness",
        title="Future work: contention-aware model under SeBS co-location",
        headers=["policy", "slo_%", "cost_$", "switches"],
        rows=rows,
        notes="Implements the extension Section VI-B leaves as future work.",
    )


@register_experiment("ablations", title="Design-choice ablations")
def run(duration: float = 600.0, seed: int = 1) -> list[ExperimentReport]:
    """Run every ablation."""
    return [
        run_hysteresis(duration, seed),
        run_perf_slack(duration, seed),
        run_keep_alive(duration, seed),
        run_contention_awareness(duration, seed),
    ]
