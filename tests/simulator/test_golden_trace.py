"""Golden-trace determinism: tuple-heap engine vs the seed engine.

The engine rewrite's contract is *bit-identical* ``(time, priority, seq)``
dispatch ordering.  These tests drive the optimised
:class:`~repro.simulator.engine.Simulator` and the preserved seed
:class:`~repro.simulator._reference.ReferenceSimulator` through

* a randomized schedule/cancel/priority script at the engine level, and
* full :class:`~repro.framework.system.ServerlessRun` workloads
  (2 seeds x 2 schemes), recording the clock at every dispatch,

and assert identical dispatch sequences and identical run results.
"""

import random

import pytest

from repro.experiments.schemes import make_policy
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator._reference import ReferenceSimulator
from repro.simulator.engine import Simulator
from repro.workloads.models import get_model
from repro.workloads.traces import poisson_trace


class Recorder:
    """Dispatch profiler that notes the clock at every dispatched event.

    The engine brackets each dispatch with ``push_site`` / ``pop``; the
    frozen reference engine credits it post hoc through ``record``.
    Both see the clock already advanced to the event's time."""

    def __init__(self, sim):
        self.sim = sim
        self.times = []

    def push_site(self, fn):
        self.times.append(self.sim.now)

    def pop(self):
        pass

    def record(self, fn, seconds):
        self.times.append(self.sim.now)


# ----------------------------------------------------------------------
# Engine-level golden script
# ----------------------------------------------------------------------
def _scripted_run(sim_cls, seed, n_roots=200):
    """Run a randomized schedule/cancel workload; return the dispatch
    order and every handle the script scheduled, in scheduling order.

    The script draws every decision (delays, priorities, rescheduling,
    cancellations) from one seeded RNG.  Because draws happen in dispatch
    order, the recorded sequence is identical across engines iff the
    engines dispatch in the identical order — which is the contract.
    """
    rng = random.Random(seed)
    sim = sim_cls()
    order = []
    handles = []
    live_handles = []

    def make(tag, depth):
        def cb():
            order.append((tag, round(sim.now, 9)))
            if depth < 3 and rng.random() < 0.6:
                delay = rng.choice([0.0, 0.5, 1.0, rng.uniform(0.0, 4.0)])
                prio = rng.choice([0, 0, 5, 10])
                h = sim.schedule(delay, make((tag, depth), depth + 1), prio)
                handles.append(h)
                live_handles.append(h)
            if live_handles and rng.random() < 0.3:
                sim.cancel(live_handles.pop(rng.randrange(len(live_handles))))

        return cb

    for i in range(n_roots):
        # Same-time collisions on purpose: i % 7 buckets many roots onto
        # identical timestamps so priority/seq tie-breaks are exercised.
        handles.append(
            sim.schedule_at((i % 7) * 1.0, make(i, 0), priority=i % 3)
        )
    sim.run()
    return order, handles


def _tombstones(handles):
    """Each handle's ``(time, priority, seq)`` and whether it was
    cancelled, read from either engine's handle type."""
    out = []
    for h in handles:
        if isinstance(h, list):  # the engine's plain heap entry
            out.append((h[0], h[1], h[2], h[3] is None))
        else:
            out.append((h.time, h.priority, h.seq, h.cancelled))
    return out


@pytest.mark.parametrize("seed", [7, 21])
def test_scripted_dispatch_order_matches_reference(seed):
    assert _scripted_run(Simulator, seed)[0] == _scripted_run(
        ReferenceSimulator, seed
    )[0]


@pytest.mark.parametrize("seed", [7, 21])
def test_cancel_tombstones_the_same_entries_as_reference(seed):
    new_order, new_handles = _scripted_run(Simulator, seed)
    ref_order, ref_handles = _scripted_run(ReferenceSimulator, seed)
    assert new_order == ref_order
    new, ref = _tombstones(new_handles), _tombstones(ref_handles)
    assert sum(cancelled for *_, cancelled in new) > 10  # the script cancels
    assert new == ref


# ----------------------------------------------------------------------
# Full-framework golden runs
# ----------------------------------------------------------------------
def _golden_run(sim_cls, scheme, seed, duration=30.0):
    model = get_model("resnet50")
    profiles = ProfileService()
    slo = SLO()
    trace = poisson_trace(
        rate_rps=model.peak_rps, duration=duration, seed=seed
    )
    policy = make_policy(scheme, model, profiles, slo.target_seconds, trace)
    sim = sim_cls()
    recorder = Recorder(sim)
    sim.set_profiler(recorder)
    result = ServerlessRun(
        model, trace, policy, profiles, slo, RunConfig(seed=seed), sim=sim
    ).execute()
    return recorder.times, result


SCALARS = (
    "offered_requests", "slo_compliance", "p50_seconds", "p99_seconds",
    "total_cost", "energy_joules", "avg_watts", "n_switches", "cold_starts",
)


@pytest.mark.parametrize("scheme", ["paldia", "molecule_$"])
@pytest.mark.parametrize("seed", [1, 2])
def test_full_run_golden_trace(scheme, seed):
    new_times, new_result = _golden_run(Simulator, scheme, seed)
    ref_times, ref_result = _golden_run(ReferenceSimulator, scheme, seed)

    # Every dispatch, in order, at the exact same simulated instant.
    assert len(new_times) > 100  # the workload actually exercised the loop
    assert new_times == ref_times

    for name in SCALARS:
        assert getattr(new_result, name) == getattr(ref_result, name), name
    assert new_result.mode_split == ref_result.mode_split
    assert new_result.hardware_usage == ref_result.hardware_usage
    assert new_result.cost_by_spec == ref_result.cost_by_spec
