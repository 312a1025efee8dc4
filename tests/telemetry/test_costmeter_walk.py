"""The cost meter's array sweep against a one-interval-at-a-time walk.

:class:`~repro.telemetry.costmeter.CostMeter` itemizes leases with array
arithmetic that imitates a sequential walk over the lease's transition
points, so its dollars match that walk bit for bit.  This module keeps
the walk itself (:func:`walk_summary`, the meter's earlier itemization,
fed per batch) as a test-only reference and compares the two on seeded
random leases built to hit the cases where the imitation can slip:
several removals and additions at one instant, overlapping spawns,
batches straddling the lease start or end, zero-length intervals and
batches or spawns meeting the ready boundary.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.framework.request import Batch
from repro.simulator.metrics import MetricsCollector
from repro.telemetry.costmeter import (
    BUCKETS,
    CostBreakdown,
    CostMeter,
    ModelSpecCost,
)

SPECS = (
    SimpleNamespace(name="gpu", price_per_second=0.0011),
    SimpleNamespace(name="cpu", price_per_second=0.0003),
    SimpleNamespace(name="big", price_per_second=1.0),
)


class Lease:
    """What the walk needs of one lease: its batches in completion order
    as ``(batch_id, model, n, started_at, completed_at)`` and its spawns
    as ``(t0, t1)``."""

    def __init__(self, node_id, spec, start, ready_at):
        self.node_id = node_id
        self.spec = spec
        self.start = start
        self.ready_at = ready_at
        self.end = None
        self.spawns = []
        self.batches = []


def walk_itemize(lease, end):
    """Walk one lease interval by interval: ``(bucket dollars, bucket
    seconds, dollars per batch id, (model, n) per batch id)``."""
    start, pps = lease.start, lease.spec.price_per_second
    ready = min(max(lease.ready_at, start), end)
    # (time, order, kind, payload): order makes removals apply before
    # additions at the same instant.
    events = []
    ADD_BATCH, REMOVE_BATCH, ADD_SPAWN, REMOVE_SPAWN = 0, 1, 2, 3
    for batch_id, model, n, b0, b1 in lease.batches:
        b0, b1 = max(b0, start), min(b1, end)
        if b1 <= b0:
            continue
        events.append((b0, 1, ADD_BATCH, (batch_id, model, n)))
        events.append((b1, 0, REMOVE_BATCH, (batch_id, model, n)))
    for s0, s1 in lease.spawns:
        s0, s1 = max(s0, start), min(s1, end)
        if s1 <= s0:
            continue
        events.append((s0, 1, ADD_SPAWN, ()))
        events.append((s1, 0, REMOVE_SPAWN, ()))
    if start < ready:
        events.append((ready, 0, -1, ()))  # bucket boundary only
    events.sort(key=lambda e: (e[0], e[1]))

    bucket_dollars = {b: 0.0 for b in BUCKETS}
    bucket_seconds = {b: 0.0 for b in BUCKETS}
    batch_dollars = {}
    batch_meta = {}
    resident = {}  # batch_id -> n_requests
    resident_requests = 0
    spawning = 0
    cursor = start

    def close_interval(until):
        nonlocal cursor
        dt = until - cursor
        cursor = until
        if dt <= 0:
            return
        dollars = dt * pps
        if resident_requests > 0:
            bucket_dollars["busy"] += dollars
            bucket_seconds["busy"] += dt
            for bid, n in resident.items():
                batch_dollars[bid] = (
                    batch_dollars.get(bid, 0.0)
                    + dollars * (n / resident_requests)
                )
        elif until <= ready:
            bucket_dollars["reconfig"] += dollars
            bucket_seconds["reconfig"] += dt
        elif spawning > 0:
            bucket_dollars["coldstart"] += dollars
            bucket_seconds["coldstart"] += dt
        else:
            bucket_dollars["idle"] += dollars
            bucket_seconds["idle"] += dt

    for t, _, kind, payload in events:
        close_interval(min(t, end))
        if kind == ADD_BATCH:
            bid, model, n = payload
            resident[bid] = resident.get(bid, 0) + n
            resident_requests += n
            batch_meta[bid] = (model, n)
        elif kind == REMOVE_BATCH:
            bid, _, n = payload
            resident_requests -= n
            left = resident.get(bid, 0) - n
            if left > 0:
                resident[bid] = left
            else:
                resident.pop(bid, None)
        elif kind == ADD_SPAWN:
            spawning += 1
        elif kind == REMOVE_SPAWN:
            spawning -= 1
    close_interval(end)
    return bucket_dollars, bucket_seconds, batch_dollars, batch_meta


def walk_summary(leases, now):
    """:meth:`CostMeter.summarize` by walking each lease."""
    out = CostBreakdown()
    for lease in sorted(leases, key=lambda s: (s.start, s.node_id)):
        end = lease.end if lease.end is not None else now
        dollars, seconds, batch_dollars, batch_meta = walk_itemize(lease, end)
        total = sum(dollars.values())
        spec = lease.spec.name
        out.leases.append((lease.node_id, spec, lease.start, end, total,
                           dollars, seconds))
        out.total_dollars += total
        out.spec_dollars[spec] = out.spec_dollars.get(spec, 0.0) + total
        for b in BUCKETS:
            out.bucket_dollars[b] += dollars[b]
            out.bucket_seconds[b] += seconds[b]
        for bid, paid in batch_dollars.items():
            model, _ = batch_meta[bid]
            out.batch_cost_dollars[bid] = (
                out.batch_cost_dollars.get(bid, 0.0) + paid
            )
            cell = out.by_model_spec.setdefault(
                (model, spec), ModelSpecCost(model=model, spec=spec)
            )
            cell.busy_dollars += paid
        for bid, (model, n) in batch_meta.items():
            cell = out.by_model_spec.setdefault(
                (model, spec), ModelSpecCost(model=model, spec=spec)
            )
            cell.requests += n
            cell.batches += 1
    for (model, spec), cell in out.by_model_spec.items():
        spec_busy_dollars = sum(
            dollars["busy"] for _, s, *_, dollars, _ in out.leases if s == spec
        )
        spec_busy_seconds = sum(
            seconds["busy"] for _, s, *_, seconds in out.leases if s == spec
        )
        if spec_busy_dollars > 0:
            cell.busy_seconds = (
                cell.busy_dollars / spec_busy_dollars * spec_busy_seconds
            )
    return out


# ----------------------------------------------------------------------
# Seeded random leases
# ----------------------------------------------------------------------
def random_run(rng):
    """Feed one random multi-lease scenario to a :class:`CostMeter` and
    to the walk's lease records; returns ``(meter, leases, now)``.

    Times mostly sit on a 0.5 s grid, so batches and spawns share
    endpoints with each other, the lease boundaries and the ready
    instant; some batches and spawns have zero length, and batches are
    drawn past both lease ends."""
    meter, collector = CostMeter(), MetricsCollector()
    meter.attach(collector.log)
    leases, completed = [], []
    grid = rng.random() < 0.8

    def at(lo, hi):
        t = float(rng.uniform(lo, hi))
        return round(t * 2) / 2 if grid else t

    batch_id = 0
    for node_id in range(1, int(rng.integers(1, 5)) + 1):
        spec = SPECS[int(rng.integers(len(SPECS)))]
        start = at(0, 6)
        ready = start + float(rng.choice([0.0, 0.5, 2.0, 50.0]))
        lease = Lease(node_id, spec, start, ready)
        meter.on_acquire(node_id, spec, start, ready)
        leases.append(lease)
        end = start + at(2, 15)
        for _ in range(int(rng.integers(0, 5))):
            s0 = at(start - 1, end + 1)
            s1 = s0 if rng.random() < 0.15 else s0 + at(0, 4)
            lease.spawns.append((s0, s1))
            meter.on_spawn(node_id, s0, s1)
        for _ in range(int(rng.integers(0, 25))):
            b0 = at(start - 2, end + 2)
            b1 = b0 if rng.random() < 0.1 else b0 + at(0, 4)
            completed.append((b1, node_id, batch_id,
                              str(rng.choice(["m1", "m2"])),
                              int(rng.integers(1, 9)), b0))
            batch_id += 1
        lease.end = end if rng.random() < 0.7 else None
    # Batches reach the log in completion order while every lease is
    # still open, as they do in a run.
    completed.sort(key=lambda c: c[0])
    by_node = {lease.node_id: lease for lease in leases}
    for b1, node_id, bid, model, n, b0 in completed:
        by_node[node_id].batches.append((bid, model, n, b0, b1))
        batch = Batch(model=SimpleNamespace(name=model), arrivals=np.zeros(n),
                      dispatched_at=b0, batch_id=bid)
        batch.started_at = b0
        batch.complete(b1)
        collector.record_batch(batch, node_id)
    for lease in leases:
        if lease.end is not None:
            meter.on_release(lease.node_id, lease.end)
    now = max(l.start for l in leases) + at(5, 20)
    return meter, leases, now


def assert_same(sweep, walk):
    """Bit equality of every number and key order the breakdown holds."""
    assert [(l.node_id, l.spec, l.start, l.end, l.total_dollars,
             l.bucket_dollars, l.bucket_seconds)
            for l in sweep.leases] == walk.leases
    for l in sweep.leases:
        assert list(l.bucket_dollars) == list(BUCKETS)
    assert sweep.total_dollars == walk.total_dollars
    assert sweep.bucket_dollars == walk.bucket_dollars
    assert sweep.bucket_seconds == walk.bucket_seconds
    assert list(sweep.spec_dollars.items()) == list(walk.spec_dollars.items())
    assert (list(sweep.batch_cost_dollars.items())
            == list(walk.batch_cost_dollars.items()))
    assert ([(k, vars(c)) for k, c in sweep.by_model_spec.items()]
            == [(k, vars(c)) for k, c in walk.by_model_spec.items()])
    assert sweep.attributed_dollars() == walk.attributed_dollars()


@pytest.mark.parametrize("seed", range(4))
def test_sweep_matches_walk_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(150):
        meter, leases, now = random_run(rng)
        assert_same(meter.summarize(now), walk_summary(leases, now))


def test_random_leases_hit_the_tie_cases():
    """The scenarios above exercise each case the sweep must order like
    the walk; counted over the leases of seed 0."""
    rng = np.random.default_rng(0)
    seen = dict.fromkeys(
        ("shared instant", "overlapping spawns", "straddles start",
         "straddles end", "zero length", "meets ready"), 0
    )
    for _ in range(150):
        _, leases, now = random_run(rng)
        for lease in leases:
            end = lease.end if lease.end is not None else now
            ends = [b1 for *_, b0, b1 in lease.batches if b1 > b0]
            starts = [b0 for *_, b0, b1 in lease.batches if b1 > b0]
            seen["shared instant"] += len(set(ends) & set(starts)) > 0
            spawns = sorted(lease.spawns)
            seen["overlapping spawns"] += any(
                a[1] > b[0] for a, b in zip(spawns, spawns[1:])
            )
            seen["straddles start"] += any(
                b0 < lease.start < b1 for *_, b0, b1 in lease.batches
            )
            seen["straddles end"] += any(
                b0 < end < b1 for *_, b0, b1 in lease.batches
            )
            seen["zero length"] += any(
                b0 == b1 for *_, b0, b1 in lease.batches
            ) + any(s0 == s1 for s0, s1 in lease.spawns)
            ready = lease.ready_at
            seen["meets ready"] += lease.start < ready < end and any(
                ready in (b0, b1) for *_, b0, b1 in lease.batches
            )
    assert min(seen.values()) >= 20, seen


def test_reference_walk_matches_the_hand_computed_lease():
    """The walk itself, on the lease ``test_costmeter`` computes by hand:
    acquire 0 (ready 5), spawn [5, 7), A [8, 10) n=4, B [9, 10) n=4,
    release 12."""
    lease = Lease(1, SimpleNamespace(name="s", price_per_second=1.0),
                  0.0, 5.0)
    lease.spawns = [(5.0, 7.0)]
    lease.batches = [(10, "m", 4, 8.0, 10.0), (11, "m", 4, 9.0, 10.0)]
    dollars, seconds, batch_dollars, _ = walk_itemize(lease, 12.0)
    assert dollars == {"busy": 2.0, "coldstart": 2.0, "idle": 3.0,
                       "reconfig": 5.0}
    assert seconds == dollars
    assert batch_dollars == {10: 1.5, 11: 0.5}
