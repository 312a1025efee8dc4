"""Tests for the periodic node outage (Fig 13b) on the chaos engine."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.simulator.chaos import ChaosEngine, ChaosHooks, ChaosSpec, PeriodicOutage
from repro.simulator.engine import Simulator


def _engine(sim, outage, events=None, horizon=None):
    hooks = ChaosHooks()
    if events is not None:
        hooks.on_node_fail = lambda: events.append(("fail", sim.now))
        hooks.on_node_recover = lambda: events.append(("recover", sim.now))
    engine = ChaosEngine(
        sim, ChaosSpec(faults=(outage,)), hooks, horizon=horizon
    )
    engine.start()
    return engine


def _down_at(t, outage):
    """Whether the engine reports the node down at time ``t``."""
    sim = Simulator()
    engine = _engine(sim, outage)
    sim.run(until=t)
    return engine.node_down


class TestSchedule:
    def test_downtime_must_be_shorter_than_period(self):
        with pytest.raises(ValueError):
            PeriodicOutage(period_seconds=60.0, downtime_seconds=60.0)

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ValueError):
            PeriodicOutage(period_seconds=-1.0, downtime_seconds=0.5)

    def test_is_down_before_first_failure(self):
        outage = PeriodicOutage(120.0, 60.0, first_failure_at=60.0)
        assert not _down_at(30.0, outage)

    def test_is_down_during_outage(self):
        outage = PeriodicOutage(120.0, 60.0, first_failure_at=60.0)
        assert _down_at(61.0, outage)
        assert _down_at(119.0, outage)

    def test_is_up_between_outages(self):
        outage = PeriodicOutage(120.0, 60.0, first_failure_at=60.0)
        assert not _down_at(130.0, outage)
        assert _down_at(185.0, outage)  # second outage at 180


class TestInjector:
    def test_alternating_callbacks(self, sim):
        events = []
        engine = _engine(
            sim, PeriodicOutage(100.0, 40.0, first_failure_at=10.0),
            events, horizon=250.0,
        )
        sim.run()
        assert events[:4] == [
            ("fail", 10.0),
            ("recover", 50.0),
            ("fail", 110.0),
            ("recover", 150.0),
        ]
        assert engine.injected["periodic_outage"] >= 2

    def test_horizon_stops_injection(self, sim):
        events = []
        _engine(
            sim, PeriodicOutage(100.0, 40.0, first_failure_at=10.0),
            events, horizon=20.0,
        )
        sim.run()
        assert [kind for kind, _ in events] == ["fail", "recover"]


class TestScheduleInjectorAgreement:
    """Property: across random outage specs the engine fires on the
    ``first + k * period`` grid below the horizon, alternates strictly,
    recovers after exactly ``downtime``, and reports ``node_down`` in
    agreement at interior instants."""

    @given(
        period=st.floats(min_value=5.0, max_value=300.0),
        downtime_frac=st.floats(min_value=0.05, max_value=0.9),
        first=st.floats(min_value=0.0, max_value=200.0),
        horizon=st.floats(min_value=10.0, max_value=500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_events_agree_with_is_down(self, period, downtime_frac, first,
                                       horizon):
        downtime = period * downtime_frac
        # The engine accumulates onsets as float sums; when a grid point
        # sits within float noise of the horizon, whether it fires is
        # ambiguous.  Stay away from that boundary.
        k_near = round((horizon - first) / period)
        assume(abs(first + k_near * period - horizon) > 1e-3)

        # Onsets are exactly the grid points below the horizon.
        expected, t = [], first
        while t < horizon:
            expected.append(t)
            t += period

        sim = Simulator()
        events = []
        engine = _engine(
            sim, PeriodicOutage(period, downtime, first_failure_at=first),
            events, horizon=horizon,
        )
        # Probe node_down mid-outage and mid-gap (boundary instants are
        # left undefined by float accumulation).
        probes = []
        for f in expected:
            for at, want in ((f + downtime / 2.0, True),
                             (f + downtime + (period - downtime) / 2.0, False)):
                sim.schedule_at(
                    at, lambda want=want: probes.append((engine.node_down, want))
                )
        sim.run()

        # Strict fail/recover alternation, starting with a fail.
        assert [kind for kind, _ in events] == (
            ["fail", "recover"] * (len(events) // 2)
        )
        fails = [t for kind, t in events if kind == "fail"]
        recovers = [t for kind, t in events if kind == "recover"]
        assert fails == pytest.approx(expected)
        assert recovers == pytest.approx([f + downtime for f in fails])
        assert engine.injected["periodic_outage"] == len(expected)
        assert all(seen == want for seen, want in probes)
