"""Decision-audit acceptance test: a synthetic rate ramp.

Drives Algorithm 1 (:class:`HardwareSelector`) directly with a ramping
request rate and checks the audit log *explains* the resulting switch:
every tick emits exactly one ``hardware_selection.tick`` event with the
full candidate table and hysteresis state, and the tick that requests
the switch shows either a completed ``wait_ctr`` streak or an emergency
escalation.
"""

import pytest

from repro.core.hardware_selection import HardwareSelector
from repro.core.predictor import EWMAPredictor
from repro.telemetry import Tracer

INTERVAL = 0.5


@pytest.fixture
def traced_selector(resnet50, profiles, slo):
    selector = HardwareSelector(
        model=resnet50,
        profiles=profiles,
        predictor=EWMAPredictor(),
        slo_seconds=slo.target_seconds,
    )
    selector.tracer = Tracer()
    return selector


def ramp_rates(low=2.0, high=220.0, n_low=6, n_ramp=14, n_high=10):
    rates = [low] * n_low
    step = (high - low) / n_ramp
    rates += [low + step * (i + 1) for i in range(n_ramp)]
    rates += [high] * n_high
    return rates


def replay(selector, rates, start_hw):
    """Feed the ramp tick by tick, following requested switches like the
    framework's monitor loop does.  Returns the hardware timeline and how
    many ticks requested a switch (``SelectionOutcome.switch_requested``)."""
    current = start_hw
    timeline = []
    switches = 0
    for i, rate in enumerate(rates):
        now = (i + 1) * INTERVAL
        selector.predictor.observe(rate, now)
        outcome = selector.tick(now, current)
        if outcome.switch_requested:
            current = outcome.chosen
            switches += 1
        timeline.append(current)
    return timeline, switches


class TestRateRampAudit:
    def test_every_tick_emits_one_audit_event(self, traced_selector, cpu_node):
        rates = ramp_rates()
        replay(traced_selector, rates, cpu_node)
        ticks = traced_selector.tracer.events_named("hardware_selection.tick")
        assert len(ticks) == len(rates)

    def test_audit_rows_carry_candidate_table_and_hysteresis(
        self, traced_selector, cpu_node
    ):
        replay(traced_selector, ramp_rates(), cpu_node)
        for e in traced_selector.tracer.events_named("hardware_selection.tick"):
            a = e.attrs
            assert a["candidates"], "candidate table must never be empty"
            for row in a["candidates"]:
                assert {"hw", "least_t_max", "best_y", "cost_per_hour"} <= set(row)
            assert a["wait_ctr"] >= 0
            assert a["wait_limit"] == traced_selector.wait_limit
            assert a["chosen"] in {row["hw"] for row in a["candidates"]}

    def test_ramp_escalates_off_the_cpu(self, traced_selector, cpu_node):
        timeline, switches = replay(traced_selector, ramp_rates(), cpu_node)
        assert timeline[-1].is_gpu, "a 220 rps ramp must end on a GPU"
        assert switches >= 1

    def test_audit_log_explains_the_switch(self, traced_selector, cpu_node):
        replay(traced_selector, ramp_rates(), cpu_node)
        ticks = traced_selector.tracer.events_named("hardware_selection.tick")
        switches = [e for e in ticks if e.attrs["switch_requested"]]
        assert switches, "the ramp must produce at least one switch"
        for e in switches:
            a = e.attrs
            # Hysteresis or emergency: never a silent, unexplained switch.
            # (wait_limit <= wait_limit_down, so the weaker bound holds for
            # both escalating and de-escalating switches.)
            assert (
                a["emergency"]
                or a["current"] is None
                or a["wait_ctr"] >= a["wait_limit"]
            )
            assert a["chosen"] != a["current"]

    def test_mismatch_streak_precedes_non_emergency_switch(
        self, traced_selector, cpu_node
    ):
        replay(traced_selector, ramp_rates(), cpu_node)
        ticks = traced_selector.tracer.events_named("hardware_selection.tick")
        for i, e in enumerate(ticks):
            a = e.attrs
            if not a["switch_requested"] or a["emergency"]:
                continue
            streak = a["wait_ctr"]
            # The streak value must match the number of consecutive
            # preceding mismatch ticks (plus this one); the streak restarts
            # after a match *or* after an earlier switch reset the counter.
            mismatches = 1
            for prev in reversed(ticks[:i]):
                p = prev.attrs
                if p["chosen"] != p["current"] and not p["switch_requested"]:
                    mismatches += 1
                else:
                    break
            assert streak == mismatches

    def test_switch_events_match_selector_count(self, traced_selector, cpu_node):
        _, switches = replay(traced_selector, ramp_rates(), cpu_node)
        ticks = traced_selector.tracer.events_named("hardware_selection.tick")
        n_switch_events = sum(1 for e in ticks if e.attrs["switch_requested"])
        assert n_switch_events == switches

    def test_steady_state_emits_no_switches(self, traced_selector, cpu_node):
        # Constant low rate on an adequate node: audit rows every tick,
        # zero switches.
        replay(traced_selector, [2.0] * 20, cpu_node)
        ticks = traced_selector.tracer.events_named("hardware_selection.tick")
        assert len(ticks) == 20
        assert all(not e.attrs["switch_requested"] for e in ticks)

    def test_disabled_tracer_audits_nothing(self, resnet50, profiles, slo, cpu_node):
        selector = HardwareSelector(
            model=resnet50,
            profiles=profiles,
            predictor=EWMAPredictor(),
            slo_seconds=slo.target_seconds,
        )
        _, switches = replay(selector, ramp_rates(), cpu_node)
        assert selector.tracer.events == []
        assert switches >= 1
