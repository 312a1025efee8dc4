"""Molecule (beta) request-serving policy (time-sharing only).

Molecule offers minimal GPU support: workload batches execute on the GPU
one after another via time sharing, never spatially shared (Section V).
Since Molecule has no hardware selection policy of its own, the paper pairs
its serving mechanism with INFless/Llama's hardware choices:

* ``Molecule (beta) ($)`` — cheapest node able to serve one batch in
  isolation at the current rate (same rule as ``INFless/Llama ($)``);
* ``Molecule (beta) (P)`` — always the most performant GPU.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.baselines.base import WindowPlan
from repro.baselines.infless_llama import InflessLlamaPolicy
from repro.framework.request import ShareMode
from repro.hardware.catalog import HardwareSpec
from repro.hardware.profiles import ProfileService
from repro.workloads.models import ModelSpec

__all__ = ["MoleculePolicy"]


class MoleculePolicy(InflessLlamaPolicy):
    """Time-sharing-only GPU execution with borrowed hardware selection.

    Inherits the hardware rules from :class:`InflessLlamaPolicy` (as the
    paper's *(beta)* variants do) and overrides job distribution to queue
    every batch (``ShareMode.TEMPORAL``).
    """

    def __init__(
        self,
        model: ModelSpec,
        profiles: ProfileService,
        slo_seconds: float,
        cost_effective: bool = True,
        wait_limit: int = 3,
    ) -> None:
        super().__init__(
            model, profiles, slo_seconds, cost_effective=cost_effective,
            wait_limit=wait_limit,
        )
        self.name = "molecule_$" if cost_effective else "molecule_P"

    def plan_window(
        self,
        n: int,
        hw: HardwareSpec,
        existing_fbr: float,
        now: float,
        existing_queue: int = 0,
    ) -> WindowPlan:
        batch = self.batch_size_on(hw)
        # One batch at a time on the device, CPU or GPU alike.
        return self.plan_one_mode(n, batch, ShareMode.TEMPORAL)
