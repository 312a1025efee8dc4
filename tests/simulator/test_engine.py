"""Tests for the discrete-event engine."""

import pytest

from repro.simulator.engine import SimulationError, Simulator


class TestScheduling:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_schedule_and_run_fires_callback(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule(2.5, lambda: None)
        sim.run()
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_zero_delay_allowed(self, sim):
        fired = []
        sim.schedule(0.0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_past_absolute_time_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_inf_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)

    def test_handle_is_a_plain_heap_entry(self, sim):
        def callback():
            pass

        ev = sim.schedule(1.5, callback, priority=3)
        at = sim.schedule_at(2.0, callback)
        assert type(ev) is list and type(at) is list
        assert ev == [1.5, 3, 0, callback]
        assert at == [2.0, 0, 1, callback]
        sim.cancel(ev)
        assert ev[3] is None


class TestOrdering:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo_by_sequence(self, sim):
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_time_ties(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("low"), priority=10)
        sim.schedule(1.0, lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["high", "low"]

    def test_nested_scheduling(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0

    def test_determinism_across_runs(self):
        def run_once():
            s = Simulator()
            order = []
            for i in range(20):
                s.schedule((i * 7) % 5 + 0.5, lambda i=i: order.append(i))
            s.run()
            return order

        assert run_once() == run_once()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append(True))
        sim.cancel(ev)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.cancel(ev)
        sim.cancel(ev)
        sim.run()

    def test_pending_excludes_cancelled(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        sim.cancel(ev)
        assert sim.pending() == 1


class TestEdgeCases:
    def test_priority_then_seq_ordering(self, sim):
        # Full (time, priority, seq) contract in one schedule: priority
        # groups fire low-to-high, FIFO by seq within each group.
        order = []
        sim.schedule(1.0, lambda: order.append("p10a"), priority=10)
        sim.schedule(1.0, lambda: order.append("p0a"), priority=0)
        sim.schedule(1.0, lambda: order.append("p10b"), priority=10)
        sim.schedule(1.0, lambda: order.append("p0b"), priority=0)
        sim.run()
        assert order == ["p0a", "p0b", "p10a", "p10b"]

    def test_cancelled_event_not_counted_as_dispatched(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(ev)
        sim.run()
        assert sim.n_dispatched == 1

    def test_cancel_from_within_callback(self, sim):
        fired = []
        later = sim.schedule(2.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: sim.cancel(later))
        sim.run()
        assert fired == []

    def test_past_schedule_inside_callback_raises(self, sim):
        errors = []

        def go_back():
            try:
                sim.schedule_at(sim.now - 1.0, lambda: None)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(5.0, go_back)
        sim.run()
        assert len(errors) == 1

    def test_reentrant_run_rejected(self, sim):
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1


class _Recorder:
    """Minimal DispatchProfiler: logs every push_site(fn) / pop()."""

    def __init__(self):
        self.log = []

    def push_site(self, fn):
        self.log.append(("push", fn))

    def pop(self):
        self.log.append(("pop", None))

    @property
    def calls(self):
        return [fn for kind, fn in self.log if kind == "push"]


class TestProfilerHook:
    def test_profiler_sees_every_dispatch(self):
        prof = _Recorder()
        sim = Simulator(profiler=prof)
        for i in range(3):
            sim.schedule(i + 1.0, lambda: None)
        sim.run()
        assert len(prof.calls) == 3
        # Every site frame is closed before the next one opens.
        assert [kind for kind, _ in prof.log] == ["push", "pop"] * 3

    def test_profiler_never_sees_cancelled_events(self):
        prof = _Recorder()
        sim = Simulator(profiler=prof)
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(ev)
        sim.run()
        assert len(prof.calls) == 1

    def test_profiler_receives_the_callback_itself(self):
        prof = _Recorder()
        sim = Simulator(profiler=prof)

        def callback():
            pass

        sim.schedule(1.0, callback)
        sim.run()
        assert prof.calls[0] is callback

    def test_step_brackets_the_callback(self):
        prof = _Recorder()
        sim = Simulator(profiler=prof)

        def callback():
            prof.log.append(("ran", None))

        sim.schedule(1.0, callback)
        sim.schedule(2.0, lambda: None)
        assert sim.step()
        assert prof.log == [("push", callback), ("ran", None), ("pop", None)]
        assert sim.now == 1.0

    def test_set_profiler_attach_and_detach(self, sim):
        prof = _Recorder()
        sim.set_profiler(prof)
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.set_profiler(None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert len(prof.calls) == 1

    def test_unprofiled_run_unaffected(self):
        # The default (no profiler) path must behave exactly as before.
        fired = []
        sim = Simulator()
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0] and sim.n_dispatched == 1


class TestRunUntil:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_run_until_advances_clock_with_no_events(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_later_events_survive_run_until(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        sim.run()
        assert fired == [5]

    def test_stop_interrupts_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired[0] == 1
        assert 2 not in fired

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_step_fires_one_event(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]

    def test_dispatch_counter(self, sim):
        for i in range(3):
            sim.schedule(i + 1.0, lambda: None)
        sim.run()
        assert sim.n_dispatched == 3
