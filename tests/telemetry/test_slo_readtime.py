"""The SLO monitor's read-time pass against a brute-force recount.

A tick of the monitor stores only its time; windows, alerts and the
sampler's ``slo.*`` columns are computed from the batch log when it is
read.  Every test here logs scripted batches the way a run does —
each batch before the first tick at or after its completion — and
compares what the monitor reports with a recount that, per tick ``t``,
takes the rows with ``t - window <= completed_at <= t`` of each
(scope, key) one by one.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.paldia import PaldiaPolicy
from repro.framework.request import Batch
from repro.framework.slo import SLO
from repro.framework.system import ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator.engine import Simulator
from repro.simulator.metrics import MetricsCollector
from repro.telemetry import CostBudgetMonitor, SLOMonitor, Tracer
from repro.telemetry.slo_monitor import (
    BURN_RATE_THRESHOLD,
    MIN_WINDOW_REQUESTS,
)
from repro.workloads.models import get_model
from repro.workloads.traces import poisson_trace

SLO_S = 0.2
GOAL = 0.99


def batch(done, model, hardware, latencies):
    """A batch completing at ``done`` whose requests took ``latencies``
    (``hardware`` may be ``None``)."""
    return SimpleNamespace(done=float(done), model=model, hardware=hardware,
                           arrivals=np.sort(done - np.asarray(latencies)))


def log(collector, b):
    record = Batch(model=SimpleNamespace(name=b.model), arrivals=b.arrivals,
                   dispatched_at=b.done)
    record.hardware_name = b.hardware
    record.complete(b.done)
    collector.record_batch(record)


def recount(batches, now, window):
    """Every (scope, key) window with a batch completed by ``now``, as
    ``{(scope, key): (n, violations, attainment, burn, p99)}``."""
    cutoff = now - window
    keys = {}
    for b in batches:
        if b.done > now:
            continue
        latencies = b.done - b.arrivals
        for ident in (("hardware", b.hardware or "?"), ("model", b.model)):
            inside = keys.setdefault(ident, [])
            if b.done >= cutoff:
                inside.append(latencies)
    out = {}
    for ident, parts in sorted(keys.items()):
        latencies = np.concatenate(parts) if parts else np.empty(0)
        n = latencies.size
        violations = int((latencies > SLO_S).sum())
        rate = violations / n if n else 0.0
        out[ident] = (n, violations, 1.0 - rate, rate / (1.0 - GOAL),
                      float(np.percentile(latencies, 99.0)) if n else 0.0)
    return out


def recount_alerts(batches, ticks, window):
    """The edge-triggered alert sequence, as the event attributes the
    monitor records (minus the constant ones)."""
    firing, alerts = set(), []
    for t in ticks:
        for ident, (n, v, attainment, burn, p99) in recount(
            batches, t, window
        ).items():
            fire = n >= MIN_WINDOW_REQUESTS and burn >= BURN_RATE_THRESHOLD
            if fire != (ident in firing):
                (firing.add if fire else firing.discard)(ident)
                alerts.append((t, "firing" if fire else "resolved", *ident,
                               attainment, p99, burn, n, v))
    return alerts, firing


def recorded_alerts(tracer):
    return [(e.time, e.attrs["state"], e.attrs["scope"], e.attrs["key"],
             e.attrs["attainment"], e.attrs["p99_seconds"],
             e.attrs["burn_rate"], e.attrs["n_requests"],
             e.attrs["n_violations"])
            for e in tracer.events_named("slo_alert")]


def drive(batches, ticks, window, read_between=False):
    """Log ``batches`` (in completion order) around ticks of a monitor;
    ``read_between`` also reads the tracer's events after every tick."""
    tracer, collector = Tracer(), MetricsCollector()
    monitor = SLOMonitor(SLO_S, tracer=tracer, window_seconds=window,
                         compliance_goal=GOAL)
    monitor.attach(collector.log)
    pending = iter(batches)
    nxt = next(pending, None)
    for t in ticks:
        while nxt is not None and nxt.done <= t:
            log(collector, nxt)
            nxt = next(pending, None)
        monitor.sample(t)
        if read_between:
            tracer.events
    while nxt is not None:
        log(collector, nxt)
        nxt = next(pending, None)
    return monitor, tracer


def check_against_recount(batches, ticks, window, read_between=False):
    monitor, tracer = drive(batches, ticks, window, read_between)
    alerts, firing = recount_alerts(batches, ticks, window)
    assert recorded_alerts(tracer) == alerts
    assert monitor.alerts_emitted == len(alerts)
    burn, attainment = monitor.worst(np.array(ticks))
    for i, t in enumerate(ticks):
        want = recount(batches, t, window)
        got = {(s.scope, s.key): (s.n_requests, s.n_violations, s.attainment,
                                  s.burn_rate, s.p99_seconds)
               for s in monitor.window_stats(t)}
        assert got == want, t
        assert burn[i] == max([w[3] for w in want.values()], default=0.0)
        assert attainment[i] == min([w[2] for w in want.values()],
                                    default=1.0)
    last = monitor.window_stats(ticks[-1])
    assert {(s.scope, s.key) for s in last if s.firing} == firing
    return tracer


def ok(n):
    return np.full(n, 0.05)


def bad(n):
    return np.full(n, 0.5)


def scripted():
    """Boundary cases in one log, window 10 s, ticks every second."""
    return [
        batch(1.0, "a", "x", np.concatenate([ok(20), bad(5)])),
        # Exactly at the tick at 3.0: that tick judges it.
        batch(3.0, "a", "x", bad(4)),
        # Hardware None is keyed "?".
        batch(3.5, "a", None, np.concatenate([ok(30), bad(3)])),
        # Completes at 4.0; the tick at 14.0 has cutoff 14.0 - 10.0 ==
        # 4.0 and still holds it, the tick at 15.0 does not.
        batch(4.0, "a", "y", bad(30)),
        # Model "b" is first seen mid-run.
        batch(9.25, "b", "x", np.concatenate([ok(40), bad(1)])),
        batch(12.0, "b", "y", ok(60)),
        batch(16.0, "a", "x", ok(100)),
        batch(22.0, "b", None, bad(25)),
        batch(22.0, "a", "y", ok(2)),
    ]


TICKS = [float(t) for t in range(1, 36)]


class TestScripted:
    def test_windows_alerts_and_worst_match_the_recount(self):
        tracer = check_against_recount(scripted(), TICKS, 10.0)
        states = [(e.time, e.attrs["state"], e.attrs["key"])
                  for e in tracer.events_named("slo_alert")]
        # The log reaches every boundary case the docstring names.
        assert (1.0, "firing", "a") in states
        assert any(key == "?" for _, _, key in states)
        assert any(key == "b" for _, _, key in states)
        assert (15.0, "resolved", "y") in states

    def test_batch_at_a_tick_and_at_the_cutoff_are_inside(self):
        monitor, _ = drive(scripted(), TICKS, 10.0)
        at = {t: {(s.scope, s.key): s.n_requests
                  for s in monitor.window_stats(t, include_p99=False)}
              for t in (2.0, 3.0, 14.0, 15.0)}
        assert at[3.0][("hardware", "x")] == at[2.0][("hardware", "x")] + 4
        assert at[14.0][("hardware", "y")] == 30 + 60
        assert at[15.0][("hardware", "y")] == 60

    def test_reading_between_ticks_changes_nothing(self):
        once = drive(scripted(), TICKS, 10.0)[1]
        often = drive(scripted(), TICKS, 10.0, read_between=True)[1]
        assert recorded_alerts(often) == recorded_alerts(once)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_logs(self, seed):
        rng = np.random.default_rng(seed)
        ticks = [float(t) for t in np.arange(0.5, 60.0, 0.5)]
        batches = []
        for done in np.sort(rng.choice(np.arange(0.25, 60.0, 0.25), 120)):
            n = int(rng.integers(1, 12))
            latencies = np.where(rng.random(n) < rng.choice([0.0, 0.05, 0.3]),
                                 rng.uniform(0.21, 0.6, n),
                                 rng.uniform(0.01, 0.19, n))
            batches.append(batch(done, str(rng.choice(["m1", "m2"])),
                                 rng.choice(["g", "c", None]), latencies))
        check_against_recount(batches, ticks, float(rng.choice([3.0, 7.5])))


class TestOnASimulator:
    def test_two_lanes_on_one_simulator(self):
        # Completions fire at priority 0 and the monitors at 90, so a
        # tick at a completion's instant judges it.
        sim = Simulator()
        lanes = []
        for i, model in enumerate(("resnet50", "vgg19")):
            tracer, collector = Tracer(), MetricsCollector()
            monitor = SLOMonitor(SLO_S, tracer=tracer, window_seconds=5.0)
            monitor.attach(collector.log)
            batches = [batch(t + 0.5 * i, model, "g3s.xlarge",
                             np.concatenate([ok(25), bad(1 + i + (t > 8))]))
                       for t in (1.0, 2.0, 4.0, 6.0, 9.0, 10.0, 16.0)]
            for b in batches:
                sim.schedule_at(b.done, lambda b=b, c=collector: log(c, b))
            sim.every(1.0, lambda m=monitor: m.sample(sim.now), until=24.0,
                      priority=90)
            lanes.append((batches, monitor, tracer))
        sim.run()
        ticks = [float(t) for t in range(1, 25)]
        for batches, monitor, tracer in lanes:
            alerts, _ = recount_alerts(batches, ticks, 5.0)
            assert alerts
            assert recorded_alerts(tracer) == alerts

    def test_slo_alert_precedes_budget_alert_of_the_same_tick(self):
        sim, tracer, collector = Simulator(), Tracer(), MetricsCollector()
        slo = SLOMonitor(SLO_S, tracer=tracer)
        slo.attach(collector.log)
        budget = CostBudgetMonitor(
            SimpleNamespace(spent=lambda now: 0.01 * now), tracer=tracer,
            budget_dollars=1.0, horizon_seconds=1000.0,
        )
        b = batch(1.5, "resnet50", "g3s.xlarge", bad(30))
        sim.schedule_at(b.done, lambda: log(collector, b))
        sim.schedule_at(1.5, lambda: tracer.event("marker", sim.now))

        def tick():
            slo.sample(sim.now)
            budget.sample(sim.now)

        sim.every(1.0, tick, until=3.0, priority=90)
        sim.schedule_at(2.5, lambda: tracer.event("marker", sim.now))
        sim.run()
        assert [(e.name, e.time) for e in tracer.events] == [
            ("marker", 1.5),
            ("slo_alert", 2.0), ("slo_alert", 2.0), ("budget_alert", 2.0),
            ("marker", 2.5),
        ]


def sampled_run(observed):
    """A traced resnet50 run; ``observed`` attaches a sampler observer
    that keeps every row it is handed."""
    model, profiles, slo = get_model("resnet50"), ProfileService(), SLO()
    trace = poisson_trace(rate_rps=model.peak_rps, duration=30.0, seed=0)
    tracer, rows = Tracer(), []
    if observed:
        tracer.timeseries_observers.append(
            lambda now, row: rows.append(dict(row))
        )
    run = ServerlessRun(
        model, trace, PaldiaPolicy(model, profiles, slo.target_seconds),
        profiles, slo, tracer=tracer,
    )
    run.execute()
    return run.obs.sampler, rows


def test_observed_rows_carry_the_finished_columns():
    # With an observer the slo.* columns are evaluated at each sample;
    # without one, in one pass at finalize.  Both give the same values.
    sampler, rows = sampled_run(observed=True)
    unobserved, _ = sampled_run(observed=False)
    assert len(rows) == sampler.n_samples > 0
    assert np.array_equal([row["t"] for row in rows], sampler.times())
    for name in ("slo.burn_rate", "slo.attainment"):
        seen = np.array([row[name] for row in rows])
        assert np.array_equal(seen, sampler.column(name)), name
        assert np.array_equal(seen, unobserved.column(name)), name
    assert sampler.column("slo.burn_rate").max() > 0
