"""Cost reporting: waterfall panel, cost of compliance, cost–SLO frontier.

The :class:`~repro.telemetry.costmeter.CostMeter` itemizes *where* the
dollars went (busy / cold-start / idle / reconfiguration, per hardware
spec and per model); this module turns that breakdown and the recorded
decision trail into the three artefacts the evaluation needs:

1. **Cost waterfall** (:func:`render_cost_report`) — a terminal panel
   decomposing ``RunResult.total_cost`` into its buckets with the
   conservation identity stated explicitly, plus the per-spec and
   per-(model, hardware) tables.
2. **Cost of compliance** (:func:`cost_of_compliance`) — a counterfactual
   over the ``hardware_selection.tick`` events' recorded candidate
   tables (the same replay substrate as
   :mod:`repro.analysis.attribution`): between consecutive decision
   ticks, price the gap between the chosen node's ``cost_per_hour`` and
   the *cheapest SLO-feasible* candidate's.  The integral is the dollars
   spent above the cost–SLO frontier — what compliance actually cost.
   This prices the decision trail, not the bill: lease overlaps during
   reconfiguration and keep-alive tails live in the meter's buckets, not
   here.
3. **Cost–SLO frontier** (:func:`write_cost_frontier_svg`) — a
   self-contained SVG scatter of total cost vs. SLO compliance, one
   point per scheme, so the frontier is visible at a glance (the
   paper's Fig. 5 cost/compliance trade-off, as a chart).

:func:`write_cost_json` serialises everything as ``repro.cost/1`` JSON.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.analysis.attribution import replay_tick
from repro.analysis.report import render_kv, render_table
from repro.analysis.trace_report import load_trace
from repro.telemetry.costmeter import BUCKETS, CostBreakdown
from repro.telemetry.exporters import TraceData, _jsonable

__all__ = [
    "ComplianceCost",
    "breakdown_json",
    "cost_of_compliance",
    "render_cost_report",
    "write_cost_frontier_svg",
    "write_cost_json",
]

@dataclass(frozen=True)
class ComplianceCost:
    """The decision-trail counterfactual: dollars above the frontier.

    ``actual_dollars`` integrates the chosen node's price over the
    decision intervals; ``frontier_dollars`` integrates the cheapest
    SLO-feasible candidate's.  ``excess_dollars`` is their difference —
    the price of compliance headroom (or of mis-selection).  Intervals
    whose candidate table had *no* feasible row count the chosen price
    on both sides (no cheaper compliant choice existed).
    """

    actual_dollars: float
    frontier_dollars: float
    covered_seconds: float
    n_decisions: int
    n_infeasible: int

    @property
    def excess_dollars(self) -> float:
        return self.actual_dollars - self.frontier_dollars

    def as_dict(self) -> dict[str, Any]:
        return {
            "actual_dollars": self.actual_dollars,
            "frontier_dollars": self.frontier_dollars,
            "excess_dollars": self.excess_dollars,
            "covered_seconds": self.covered_seconds,
            "n_decisions": self.n_decisions,
            "n_infeasible": self.n_infeasible,
        }


def cost_of_compliance(
    trace: Union[str, TraceData],
    slo_seconds: Optional[float] = None,
    horizon: Optional[float] = None,
) -> ComplianceCost:
    """Integrate (chosen − cheapest-feasible) $/hour over decision ticks.

    Each ``hardware_selection.tick`` governs the interval up to the next
    tick (the last one up to ``horizon``, defaulting to the trace's
    recorded ``meta.duration``; with neither, the last tick covers zero
    seconds).  Feasibility replays the recorded candidate table against
    the recorded ``slo_budget`` — pure log replay, no re-simulation.
    """
    data = load_trace(trace)
    if slo_seconds is None:
        slo_seconds = data.meta.get("slo_seconds")
    ticks = sorted(
        data.events_named("hardware_selection.tick"),
        key=lambda e: float(e.get("t", 0.0)),
    )
    if horizon is None:
        horizon = data.meta.get("duration", data.meta.get("trace_duration"))
    actual = frontier = covered = 0.0
    n_infeasible = 0
    for i, event in enumerate(ticks):
        t = float(event.get("t", 0.0))
        if i + 1 < len(ticks):
            t_next = float(ticks[i + 1].get("t", 0.0))
        elif horizon is not None:
            t_next = max(float(horizon), t)
        else:
            t_next = t
        dt = t_next - t
        if dt <= 0:
            continue
        _, _, chosen, feasible = replay_tick(event, slo_seconds)
        chosen_rate = chosen.cost_per_hour if chosen is not None else 0.0
        if feasible:
            frontier_rate = min(r.cost_per_hour for r in feasible)
        else:
            n_infeasible += 1
            frontier_rate = chosen_rate
        actual += chosen_rate / 3600.0 * dt
        frontier += frontier_rate / 3600.0 * dt
        covered += dt
    return ComplianceCost(
        actual_dollars=actual,
        frontier_dollars=frontier,
        covered_seconds=covered,
        n_decisions=len(ticks),
        n_infeasible=n_infeasible,
    )


# ----------------------------------------------------------------------
# Terminal rendering
# ----------------------------------------------------------------------
def render_cost_report(
    breakdown: CostBreakdown,
    *,
    total_cost: Optional[float] = None,
    compliance: Optional[ComplianceCost] = None,
    title: str = "cost waterfall",
) -> str:
    """The terminal view: waterfall, per-spec split, per-(model, spec)
    attribution, and (when provided) the cost-of-compliance verdict."""
    parts: list[str] = []
    total = breakdown.total_dollars
    headline = {
        "itemized total": f"${total:.6f}",
        "attributed (requests + overhead)": (
            f"${breakdown.attributed_dollars():.6f}"
        ),
        "leases": len(breakdown.leases),
        "batches attributed": len(breakdown.batch_cost_dollars),
    }
    if total_cost is not None:
        headline["RunResult.total_cost"] = f"${total_cost:.6f}"
        headline["conservation residual"] = (
            f"${abs(total_cost - breakdown.attributed_dollars()):.2e}"
        )
    parts.append(render_kv(headline, title=title))
    parts.append(
        render_table(
            ["bucket", "dollars", "seconds", "share_%"],
            [
                [
                    b,
                    round(breakdown.bucket_dollars[b], 6),
                    round(breakdown.bucket_seconds[b], 1),
                    round(100 * breakdown.bucket_dollars[b] / total, 1)
                    if total
                    else 0.0,
                ]
                for b in BUCKETS
            ],
            title="where the lease-seconds went",
        )
    )
    if breakdown.spec_dollars:
        parts.append(
            render_table(
                ["hardware", "dollars", "share_%"],
                [
                    [
                        spec,
                        round(dollars, 6),
                        round(100 * dollars / total, 1) if total else 0.0,
                    ]
                    for spec, dollars in sorted(
                        breakdown.spec_dollars.items(),
                        key=lambda kv: -kv[1],
                    )
                ],
                title="dollars by hardware spec",
            )
        )
    if breakdown.by_model_spec:
        parts.append(
            render_table(
                ["model", "hardware", "busy_$", "busy_s", "requests",
                 "batches", "$_per_1k_req"],
                [
                    [
                        cell.model,
                        cell.spec,
                        round(cell.busy_dollars, 6),
                        round(cell.busy_seconds, 1),
                        cell.requests,
                        cell.batches,
                        round(cell.dollars_per_1k_requests, 6),
                    ]
                    for cell in sorted(
                        breakdown.by_model_spec.values(),
                        key=lambda c: -c.busy_dollars,
                    )
                ],
                title="busy-dollar attribution by (model, hardware)",
            )
        )
    if compliance is not None:
        parts.append(
            render_kv(
                {
                    "decision-trail dollars": (
                        f"${compliance.actual_dollars:.6f}"
                    ),
                    "cheapest-feasible frontier": (
                        f"${compliance.frontier_dollars:.6f}"
                    ),
                    "excess (cost of compliance)": (
                        f"${compliance.excess_dollars:.6f}"
                    ),
                    "decisions": compliance.n_decisions,
                    "intervals with no feasible HW": (
                        compliance.n_infeasible
                    ),
                },
                title="cost of compliance (decision replay)",
            )
        )
    return "\n\n".join(parts)


# ----------------------------------------------------------------------
# Cost–SLO frontier SVG (self-contained, zero external deps)
# ----------------------------------------------------------------------
_SVG_W, _SVG_H, _SVG_PAD = 640, 420, 56


def write_cost_frontier_svg(
    points: list[dict[str, Any]], path: str
) -> None:
    """Scatter total cost (x) against SLO compliance (y), one labelled
    point per entry (``{label, cost_dollars, compliance}``).  The upper
    left is the good corner: compliant and cheap."""
    w, h, pad = _SVG_W, _SVG_H, _SVG_PAD
    costs = [float(p["cost_dollars"]) for p in points] or [0.0]
    comps = [float(p["compliance"]) for p in points] or [1.0]
    c_lo, c_hi = min(costs), max(costs)
    c_span = max(c_hi - c_lo, 1e-9)
    a_lo = min(min(comps), 0.9)
    a_span = max(1.0 - a_lo, 1e-9)

    def x(c: float) -> float:
        return pad + (c - c_lo) / c_span * (w - 2 * pad)

    def y(a: float) -> float:
        return pad + (1.0 - a) / a_span * (h - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        'role="img" style="font-family:monospace;font-size:11px">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#fcfcfc" '
        'stroke="#ccc"/>',
        f'<text x="{w // 2 - 60}" y="{h - 12}">total cost ($)</text>',
        f'<text x="12" y="{pad - 10}">SLO compliance</text>',
        # 99% goal line
        f'<line x1="{pad}" y1="{y(0.99):.1f}" x2="{w - pad}" '
        f'y2="{y(0.99):.1f}" stroke="#c60" stroke-dasharray="5,4"/>',
        f'<text x="{w - pad + 2}" y="{y(0.99):.1f}" fill="#c60">99%</text>',
        # axis extents
        f'<text x="{pad}" y="{h - 30}">${c_lo:.4f}</text>',
        f'<text x="{w - pad - 60}" y="{h - 30}">${c_hi:.4f}</text>',
        f'<text x="4" y="{y(1.0):.1f}">100%</text>',
        f'<text x="4" y="{y(a_lo) - 2:.1f}">{100 * a_lo:.0f}%</text>',
    ]
    for p in sorted(points, key=lambda p: float(p["cost_dollars"])):
        px, py = x(float(p["cost_dollars"])), y(float(p["compliance"]))
        label = html.escape(str(p.get("label", "?")))
        parts.append(
            f'<circle cx="{px:.1f}" cy="{py:.1f}" r="5" fill="#26a" '
            f'opacity="0.8"><title>{label}: '
            f'${float(p["cost_dollars"]):.4f}, '
            f'{100 * float(p["compliance"]):.2f}%</title></circle>'
        )
        parts.append(
            f'<text x="{px + 8:.1f}" y="{py - 6:.1f}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts) + "\n")


# ----------------------------------------------------------------------
# Machine-readable export
# ----------------------------------------------------------------------
def breakdown_json(
    breakdown: CostBreakdown,
    *,
    total_cost: Optional[float] = None,
    compliance: Optional[ComplianceCost] = None,
) -> dict[str, Any]:
    """One run's cost record for the ``repro.cost/1`` payload."""
    return _jsonable({
        "total_dollars": breakdown.total_dollars,
        "total_cost": total_cost,
        "bucket_dollars": dict(breakdown.bucket_dollars),
        "bucket_seconds": dict(breakdown.bucket_seconds),
        "spec_dollars": dict(breakdown.spec_dollars),
        "by_model_spec": [
            {
                "model": cell.model,
                "spec": cell.spec,
                "busy_dollars": cell.busy_dollars,
                "busy_seconds": cell.busy_seconds,
                "requests": cell.requests,
                "batches": cell.batches,
                "dollars_per_1k_requests": cell.dollars_per_1k_requests,
            }
            for cell in sorted(
                breakdown.by_model_spec.values(),
                key=lambda c: (c.model, c.spec),
            )
        ],
        "n_leases": len(breakdown.leases),
        "attributed_dollars": breakdown.attributed_dollars(),
        "cost_of_compliance": (
            compliance.as_dict() if compliance is not None else None
        ),
    })


def write_cost_json(
    runs: list[dict[str, Any]], path: str, **meta: Any
) -> None:
    """Write the ``repro.cost/1`` report: one record per run (as built by
    :func:`breakdown_json`, plus caller-side identity keys) and any
    top-level metadata."""
    payload = _jsonable({
        "schema": "repro.cost/1",
        **meta,
        "runs": runs,
    })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
