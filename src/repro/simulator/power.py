"""A run's bill: lease cost, node power (Fig 7b) and utilization (Fig 8).

Cost is the lease-time weighted sum of node prices (Section V).  The
paper measures GPU power with nvtop and projects CPU power with
powerstat; both reduce to an idle-plus-active linear model, which is what
we integrate here:

    energy(node) = idle_watts * lease_time + (peak - idle) * busy_time

Reported numbers are normalized (the paper plots normalized power), so only
the ratios between schemes matter.  Utilization is a node's non-idle
fraction of its own lease.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from repro.simulator.cluster import LeaseRecord, NodeInstance

__all__ = ["Bill", "bill", "node_energy_joules"]


def node_energy_joules(node: NodeInstance, lease_seconds: float) -> float:
    """Energy one node consumed over its lease.

    ``busy_seconds`` is taken from the device's non-idle accounting; the
    idle floor covers the whole lease.
    """
    spec = node.spec
    busy = min(node.device.busy_seconds, lease_seconds)
    return spec.idle_watts * lease_seconds + (spec.peak_watts - spec.idle_watts) * busy


class Bill(NamedTuple):
    """What a set of leases cost; field names match :class:`RunResult`'s."""

    total_cost: float
    cost_by_spec: dict[str, float]
    #: Lease-seconds per hardware type (Fig 5's "time spent using each
    #: type of compute node").
    time_by_spec: dict[str, float]
    energy_joules: float
    #: Mean over a type's leases of each node's busy fraction of its lease.
    utilization_by_spec: dict[str, float]


def bill(pairs: Iterable[tuple[NodeInstance, LeaseRecord]], now: float) -> Bill:
    """Sum the ``(node, lease)`` pairs' bill up to ``now``, in lease order.

    Each lease's cost is computed once and added both to the total and to
    its spec's share.  Utilization counts a busy interval still open at
    ``now``; energy counts the device's closed busy time only, and a
    lease of zero length has no utilization.
    """
    cost = energy = 0.0
    cost_by_spec: dict[str, float] = {}
    time_by_spec: dict[str, float] = {}
    busy_fractions: dict[str, list[float]] = {}
    for node, lease in pairs:
        name = lease.spec.name
        lease_seconds = lease.duration(now)
        lease_cost = lease.cost(now)
        cost += lease_cost
        energy += node_energy_joules(node, lease_seconds)
        cost_by_spec[name] = cost_by_spec.get(name, 0.0) + lease_cost
        time_by_spec[name] = time_by_spec.get(name, 0.0) + lease_seconds
        if lease_seconds > 0:
            device = node.device
            busy = device.busy_seconds
            if device._busy_since is not None:
                busy += now - device._busy_since
            busy_fractions.setdefault(name, []).append(
                min(1.0, busy / lease_seconds)
            )
    utilization = {
        name: float(np.mean(fractions))
        for name, fractions in busy_fractions.items()
    }
    return Bill(cost, cost_by_spec, time_by_spec, energy, utilization)
