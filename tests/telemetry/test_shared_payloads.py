"""One event payload per memoised decision.

Paldia memoises its Equation-(1) decisions (``PaldiaPolicy._split_cache``)
and Algorithm 1 memoises its candidate tables, so a traced run repeats
the same decision many times.  Each ``job_distribution.split`` event of
one memoised decision carries the same payload dict, and each
``hardware_selection.tick`` event over one memoised table carries the
same ``candidates`` list; an untraced run builds neither.
"""

from repro import PaldiaPolicy, ProfileService, RunConfig, SLO
from repro import ServerlessRun, get_model
from repro.core.hardware_selection import HardwareSelector
from repro.core.predictor import EWMAPredictor
from repro.telemetry import Tracer, to_jsonl_lines
from repro.workloads.traces import poisson_trace


def traced_policy(model, profiles, slo):
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    policy.bind_tracer(Tracer())
    return policy


class TestSplitPayload:
    def test_events_of_one_decision_share_one_payload(
        self, resnet50, profiles, slo, v100
    ):
        policy = traced_policy(resnet50, profiles, slo)
        for now in (1.0, 2.0, 3.0):
            policy.plan_window(12, v100, 0.0, now, existing_queue=2)
        policy.plan_window(13, v100, 0.0, 4.0, existing_queue=2)
        events = policy.tracer.events_named("job_distribution.split")
        assert [e.time for e in events] == [1.0, 2.0, 3.0, 4.0]
        first, second, third, other = (e.attrs for e in events)
        assert first is second is third
        assert other is not first
        assert (first["n"], other["n"]) == (12, 13)

    def test_payload_keeps_the_event_schema(
        self, resnet50, profiles, slo, v100
    ):
        policy = traced_policy(resnet50, profiles, slo)
        plan = policy.plan_window(12, v100, 0.5, 1.0, existing_queue=3)
        (event,) = policy.tracer.events_named("job_distribution.split")
        assert list(event.attrs) == [
            "hardware", "n", "y", "n_spatial", "batch_size", "t_max",
            "feasible", "existing_fbr", "existing_queue",
        ]
        assert (event.attrs["hardware"], event.attrs["y"],
                event.attrs["existing_fbr"], event.attrs["existing_queue"]) \
            == (v100.name, plan.y, 0.5, 3)

    def test_untraced_calls_build_no_payload(
        self, resnet50, profiles, slo, v100
    ):
        policy = PaldiaPolicy(resnet50, profiles, slo.target_seconds)
        policy.plan_window(12, v100, 0.0, 1.0)
        policy.plan_window(12, v100, 0.0, 2.0)
        (entry,) = policy._split_cache.values()
        assert entry[2] is None


class TestTickCandidates:
    def test_ticks_over_one_table_share_one_candidates_list(
        self, resnet50, profiles, slo, v100
    ):
        selector = HardwareSelector(
            model=resnet50, profiles=profiles, predictor=EWMAPredictor(),
            slo_seconds=slo.target_seconds,
        )
        selector.tracer = Tracer()
        selector.predictor.observe(40.0, 0.0)
        first = selector.tick(1.0, v100)
        second = selector.tick(1.0, v100)
        assert first.table is second.table  # the memoised table
        a, b = selector.tracer.events_named("hardware_selection.tick")
        assert a.attrs is not b.attrs  # hysteresis state is per tick
        assert a.attrs["candidates"] is b.attrs["candidates"]
        assert a.attrs["candidates"] is first.table.trace_rows


def test_a_traced_run_shares_payloads():
    # Steady Poisson traffic repeats decisions, so far fewer payloads
    # than events are recorded; the JSONL export is unaffected.
    model, profiles, slo = get_model("resnet50"), ProfileService(), SLO()
    trace = poisson_trace(rate_rps=model.peak_rps, duration=20.0, seed=0)
    tracer = Tracer()
    ServerlessRun(
        model, trace, PaldiaPolicy(model, profiles, slo.target_seconds),
        profiles, slo, RunConfig(), tracer=tracer,
    ).execute()
    splits = tracer.events_named("job_distribution.split")
    ticks = tracer.events_named("hardware_selection.tick")
    assert len({id(e.attrs) for e in splits}) < len(splits) / 2
    assert len({id(e.attrs["candidates"]) for e in ticks}) < len(ticks) / 2
    lines = list(to_jsonl_lines(tracer))
    assert sum('"job_distribution.split"' in line for line in lines) == \
        len(splits)
