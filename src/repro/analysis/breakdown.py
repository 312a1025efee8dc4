"""Tail-latency breakdowns (Figs 1 and 4).

The paper decomposes P99 latency into 'Min possible time' (the
interference- and queueing-free execution of a batch on the selected
hardware), queueing overhead, and interference overhead.  We map our
per-batch breakdown fields onto those bars:

* min possible time  <- ``exec_solo`` (+ the batching wait, which exists in
  every scheme identically and which the paper folds into the floor),
* queueing           <- ``queue_delay`` + ``cold_start_wait``,
* interference       <- ``interference_extra``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.framework.system import RunResult

__all__ = ["TailBreakdown", "paper_bars_ms", "tail_breakdown_of"]


@dataclass(frozen=True)
class TailBreakdown:
    """The paper's stacked P99 bar, in milliseconds."""

    scheme: str
    model: str
    min_possible_ms: float
    queueing_ms: float
    interference_ms: float

    @property
    def total_ms(self) -> float:
        return self.min_possible_ms + self.queueing_ms + self.interference_ms

    @property
    def queueing_share(self) -> float:
        """Fraction of the tail attributable to queueing (e.g. the paper's
        '84% queueing overhead' for Molecule($) on VGG 19)."""
        return self.queueing_ms / self.total_ms if self.total_ms else 0.0

    @property
    def interference_share(self) -> float:
        """Fraction attributable to interference (e.g. '76%' for
        INFless/Llama($) on ResNet 50)."""
        return self.interference_ms / self.total_ms if self.total_ms else 0.0


def tail_breakdown_of(result: RunResult, q: float = 99.0) -> TailBreakdown:
    """Extract the paper-style tail breakdown from a run result."""
    bd = (
        result.metrics.tail_breakdown(q=q)
        if result.metrics is not None
        else result.tail_breakdown
    )
    return TailBreakdown(result.scheme, result.model, *paper_bars_ms(bd))


def paper_bars_ms(components: Mapping[str, float]) -> tuple[float, float, float]:
    """The paper's three P99 bars, in ms, from one tail breakdown's
    components: ``(min_possible, queueing, interference)`` by the
    mapping in the module note."""
    return (
        (components["exec_solo"] + components["batching_wait"]) * 1e3,
        (components["queue_delay"] + components["cold_start_wait"]) * 1e3,
        components["interference_extra"] * 1e3,
    )
