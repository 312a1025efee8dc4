"""Cluster: node instances, acquisition/release, cost accounting.

The paper's testbed is a 6-worker heterogeneous cluster with one node of
each Table II shape; a scheme leases one node at a time (two briefly, while
reconfiguring in the background) and its dollar cost is the lease-time
weighted sum of node prices (Section V).  This module provides:

* :class:`NodeInstance` — a leased node: device (GPU or CPU), per-model
  container pools, availability flag (failure injection).
* :class:`Cluster` — acquires/releases nodes with provisioning delay and
  keeps one :class:`LeaseRecord` per node, which
  :func:`repro.simulator.power.bill` prices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from repro.hardware.catalog import HardwareCatalog, HardwareSpec
from repro.simulator.containers import ContainerPool
from repro.simulator.cpu import CPUDevice
from repro.simulator.engine import Simulator
from repro.simulator.gpu import GPUDevice
from repro.simulator.interference import DEFAULT_INTERFERENCE, InterferenceModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.observers import RunObservers

__all__ = ["NodeInstance", "Cluster", "LeaseRecord"]

Device = Union[GPUDevice, CPUDevice]


@dataclass(slots=True)
class LeaseRecord:
    """One node lease interval, for cost/power accounting."""

    spec: HardwareSpec
    start: float
    end: Optional[float] = None

    def duration(self, now: float) -> float:
        return (self.end if self.end is not None else now) - self.start

    def cost(self, now: float) -> float:
        return self.duration(now) * self.spec.price_per_second


class NodeInstance:
    """A leased worker node: compute device plus container pools.

    Container pools are keyed by model name (containers hold model
    weights).  The node exposes the union of the device and pool interfaces
    the framework needs, plus busy-time so power/utilization reports can be
    produced per node.

    Slotted: a run leases many short-lived nodes, and the framework walks
    them on hot paths (occupancy probes, drain checks).
    """

    __slots__ = (
        "sim",
        "spec",
        "node_id",
        "device",
        "_pools",
        "available",
        "spawn_delay_fn",
        "obs",
    )

    def __init__(
        self,
        sim: Simulator,
        spec: HardwareSpec,
        interference: InterferenceModel,
        rng: np.random.Generator,
        *,
        node_id: int,
        obs: Optional["RunObservers"] = None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.node_id = node_id
        if spec.is_gpu:
            self.device: Device = GPUDevice(sim, spec, interference, rng)
        else:
            self.device = CPUDevice(sim, spec, rng)
        self._pools: dict[str, ContainerPool] = {}
        self.available = True
        #: Chaos cold-start hook handed to pools created on this node.
        self.spawn_delay_fn: Optional[Callable[[float], float]] = None
        #: The leasing run's observer bundle, handed to pools created on
        #: this node (``None`` on untraced runs).
        self.obs = obs

    def pool(self, model_name: str) -> ContainerPool:
        """The container pool for ``model_name`` (created on first use)."""
        try:
            return self._pools[model_name]
        except KeyError:
            pool = ContainerPool(self.sim, self.spec.cold_start_seconds)
            pool.spawn_delay_fn = self.spawn_delay_fn
            pool.obs = self.obs
            pool.node_id = self.node_id
            self._pools[model_name] = pool
            return pool

    def pools(self) -> dict[str, ContainerPool]:
        return dict(self._pools)

    def fail(self) -> list:
        """Mark unavailable and evict all in-flight work (returns jobs)."""
        self.available = False
        evicted = self.device.evict_all()
        for pool in self._pools.values():
            pool.terminate_all()
        return evicted

    def recover(self) -> None:
        self.available = True

    # ------------------------------------------------------------------
    # Time-series probe surface
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> float:
        """Instantaneous device occupancy in ``[0, 1]`` (0 when failed)."""
        return self.device.occupancy if self.available else 0.0

    @property
    def cold_starts(self) -> int:
        """Container cold starts across this node's pools so far."""
        total = 0
        for pool in self._pools.values():
            total += pool.cold_starts
        return total

    @property
    def co_run_level(self) -> int:
        """Jobs sharing the device right now (0 when failed)."""
        return self.device.co_run_level if self.available else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeInstance({self.spec.name}#{self.node_id})"


class Cluster:
    """The heterogeneous cluster a scheme leases nodes from.

    Parameters
    ----------
    sim:
        Shared simulator.
    catalog:
        Available hardware shapes (one leasable node per shape, like the
        paper's cluster).
    interference:
        Ground-truth MPS interference physics, shared by all GPU nodes.
    seed:
        Seed for per-node execution noise streams.
    """

    def __init__(
        self,
        sim: Simulator,
        catalog: HardwareCatalog,
        interference: InterferenceModel = DEFAULT_INTERFERENCE,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.catalog = catalog
        self.interference = interference
        self._root_rng = np.random.default_rng(seed)
        self.leases: list[LeaseRecord] = []
        self._active_leases: dict[int, LeaseRecord] = {}
        self.nodes: list[NodeInstance] = []
        #: Id counters owned by the run and shared by the lanes of a
        #: shared cluster, so ids never depend on what ran earlier in
        #: the process: batches number from 0 and nodes from 1.
        self.batch_ids = itertools.count()
        self.node_ids = itertools.count(1)
        #: Optional chaos hook mapping a base cold-start latency to the
        #: (possibly inflated) spawn delay; propagated to every node
        #: acquired after it is set (see ChaosEngine.cold_start_delay).
        self.spawn_delay_fn: Optional[Callable[[float], float]] = None

    # ------------------------------------------------------------------
    # Acquisition / release
    # ------------------------------------------------------------------
    def acquire(
        self,
        spec: HardwareSpec,
        on_ready: Callable[[NodeInstance], None],
        instant: bool = False,
        obs: Optional["RunObservers"] = None,
    ) -> NodeInstance:
        """Lease a node of shape ``spec``.

        Billing starts immediately (the VM is launching); ``on_ready`` fires
        after the provisioning delay, when containers may be spawned.  With
        ``instant=True`` provisioning is skipped (used for warm starts at
        experiment begin, and by the clairvoyant Oracle).  ``obs`` is the
        leasing run's observer bundle: the node and its pools report to
        it, and it hears of the lease before ``on_ready``
        (``None`` on untraced runs costs one ``is None`` branch per lease
        transition).
        """
        node = NodeInstance(
            self.sim,
            spec,
            self.interference,
            np.random.default_rng(self._root_rng.integers(2**63)),
            node_id=next(self.node_ids),
            obs=obs,
        )
        node.spawn_delay_fn = self.spawn_delay_fn
        self.nodes.append(node)
        now = self.sim.now
        lease = LeaseRecord(spec=spec, start=now)
        self.leases.append(lease)
        self._active_leases[node.node_id] = lease
        immediate = instant or spec.provision_seconds <= 0
        if obs is not None:
            ready_at = now if immediate else now + spec.provision_seconds
            obs.node_acquired(node, now, ready_at, instant)
        if immediate:
            on_ready(node)
        else:
            self.sim.schedule(spec.provision_seconds, lambda: on_ready(node))
        return node

    def release(self, node: NodeInstance) -> None:
        """End the node's lease; billing stops now."""
        lease = self._active_leases.pop(node.node_id, None)
        if lease is None:
            raise ValueError(f"{node!r} has no active lease")
        lease.end = self.sim.now
        obs = node.obs
        if obs is not None:
            obs.node_released(node, lease, self.sim.now)
        for pool in node.pools().values():
            pool.terminate_all()
        node.available = False
