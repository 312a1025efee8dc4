"""Multi-function deployments: several models served side by side.

The paper's platform hosts many functions at once — the Gateway routes
each request to the worker its function's Hardware Selection chose, and
the provider's bill is the union of all leases.  :class:`MultiModelRun`
composes one :class:`~repro.framework.system.ServerlessRun` lane per
(model, trace, policy) on a **shared simulator and cluster**: every lane
lives on one clock, leases draw from one catalog, and the aggregate cost
is the provider's actual spend.

Lanes are independent at the node level (each function gets its own
node, as in the paper's per-function hardware selection); co-location of
*functions* on one node is the Fig 1 motivation study's setting, covered
by :class:`~repro.experiments.motivation.PinnedColocationRun`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.baselines.base import Policy
from repro.framework.slo import SLO
from repro.framework.system import (
    DRAIN_GRACE_SECONDS, RunConfig, RunResult, ServerlessRun,
)
from repro.hardware.profiles import ProfileService
from repro.simulator.cluster import Cluster
from repro.simulator.engine import Simulator
from repro.workloads.models import ModelSpec
from repro.workloads.traces import Trace

__all__ = ["Deployment", "MultiModelResult", "MultiModelRun"]


@dataclass
class Deployment:
    """One function in a multi-model deployment."""

    model: ModelSpec
    trace: Trace
    policy: Policy


@dataclass
class MultiModelResult:
    """Per-function results plus the provider-level aggregates."""

    per_model: dict[str, RunResult]
    total_cost: float
    total_energy_joules: float

    @property
    def overall_slo_compliance(self) -> float:
        """Request-weighted compliance across all functions."""
        offered = sum(r.offered_requests for r in self.per_model.values())
        if offered == 0:
            return 1.0
        met = sum(
            r.slo_compliance * r.offered_requests
            for r in self.per_model.values()
        )
        return met / offered


class MultiModelRun:
    """Serve several functions concurrently on one simulated provider.

    Parameters
    ----------
    deployments:
        The functions to host (each with its own trace and policy).
    profiles / slo / config:
        Shared across lanes (per-lane SLOs are possible by constructing
        lanes manually; the paper uses one SLO for all workloads).
    """

    def __init__(
        self,
        deployments: Sequence[Deployment],
        profiles: Optional[ProfileService] = None,
        slo: Optional[SLO] = None,
        config: Optional[RunConfig] = None,
    ) -> None:
        if not deployments:
            raise ValueError("need at least one deployment")
        names = [d.model.name for d in deployments]
        if len(set(names)) != len(names):
            raise ValueError("one deployment per model (duplicate names)")
        self.deployments = list(deployments)
        self.profiles = profiles if profiles is not None else ProfileService()
        self.slo = slo if slo is not None else SLO()
        self.config = config if config is not None else RunConfig()
        self.sim = Simulator()
        self.cluster = Cluster(
            self.sim,
            self.profiles.catalog,
            interference=self.profiles.interference,
            seed=self.config.seed,
        )
        self._lanes: dict[str, ServerlessRun] = {}

    def execute(self) -> MultiModelResult:
        """Arm every lane, drive the shared clock, summarise."""
        for dep in self.deployments:
            lane = ServerlessRun(
                dep.model,
                dep.trace,
                dep.policy,
                self.profiles,
                self.slo,
                self.config,
                sim=self.sim,
                cluster=self.cluster,
            )
            self._lanes[dep.model.name] = lane
            lane.arm()
        horizon = max(d.trace.duration for d in self.deployments)
        self.sim.run(until=horizon + DRAIN_GRACE_SECONDS)
        per_model = {
            name: lane.finalize() for name, lane in self._lanes.items()
        }
        # Lane results recompute cluster-wide cost/energy; the provider's
        # spend is counted once here.
        from repro.simulator.power import cluster_energy_joules

        total_cost = self.cluster.total_cost()
        total_energy = cluster_energy_joules(self.cluster)
        return MultiModelResult(
            per_model=per_model,
            total_cost=total_cost,
            total_energy_joules=total_energy,
        )
