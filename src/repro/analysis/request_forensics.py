"""Tail-latency forensics over a per-request causal trace.

Consumes a :class:`~repro.telemetry.reqtrace.RequestTraceData` (live
from a run, or loaded from ``repro.reqtrace/1`` JSONL) and answers the
question the run-scoped pillars cannot: *why was this request slow?*

* :func:`phase_decomposition` — per-phase P50/P99/mean across the fleet,
  with each phase's share of total latency (where the tail's time goes).
* :func:`worst_requests` — the worst-K requests; exact for
  ``K <= tail_k`` at any sampling rate (the tracer's tail reservoir).
* :func:`render_waterfall` — one request's causal waterfall: its six
  phases as a scaled ASCII bar chart, batch context (peers, deadline
  setter, hardware, co-run slot, retries), and the node/breaker/retry
  events that fired during its lifetime.
* :func:`render_forensics_report` — the full plain-text post-mortem.
* :func:`render_waterfall_svg` — the same worst-K waterfalls as one
  self-contained SVG (no external CSS/JS; openable anywhere).
* :func:`exemplar_requests` — representative request ids for a time
  window, so timeseries spikes and ``slo_alert`` events can cite the
  actual requests that made them fire.

This is the request-level post-mortem path:
``python -m repro request-trace run.reqtrace.jsonl --worst 10``.
"""

from __future__ import annotations

from typing import Any, Optional, Union
from xml.sax.saxutils import escape

import numpy as np

from repro.analysis.report import render_kv, render_table
from repro.telemetry.reqtrace import (
    PHASES,
    RequestTraceData,
    RequestView,
    read_reqtrace,
)

__all__ = [
    "exemplar_requests",
    "load_reqtrace",
    "phase_decomposition",
    "render_forensics_report",
    "render_waterfall",
    "render_waterfall_svg",
    "worst_requests",
]

#: Bar glyph budget for the ASCII waterfalls.
_BAR_WIDTH = 40

#: Stable fill colors per phase for the SVG export (colorblind-safe-ish
#: Okabe-Ito palette, one per :data:`PHASES` entry).
_SVG_COLORS = {
    "batching_wait": "#0072B2",
    "cold_start_wait": "#D55E00",
    "queue_delay": "#E69F00",
    "exec_solo": "#009E73",
    "interference_extra": "#CC79A7",
    "failure_wait": "#999999",
}


def load_reqtrace(
    path_or_data: Union[str, RequestTraceData],
) -> RequestTraceData:
    """Accept either a ``repro.reqtrace/1`` JSONL path or parsed data."""
    if isinstance(path_or_data, RequestTraceData):
        return path_or_data
    return read_reqtrace(path_or_data)


# ----------------------------------------------------------------------
# Fleet-wide decomposition
# ----------------------------------------------------------------------
def phase_decomposition(
    data: Union[str, RequestTraceData],
) -> list[dict[str, float]]:
    """Per-phase latency decomposition across every traced request.

    Returns one row per phase (in :data:`PHASES` order) with ``p50``,
    ``p99``, ``mean``, and ``share`` — the phase's fraction of summed
    end-to-end latency.  Shares sum to 1 by the conservation identity.
    """
    data = load_reqtrace(data)
    cols = data.phase_arrays()
    total = float(np.sum(cols["latency"])) if cols["latency"].size else 0.0
    rows = []
    for name in PHASES:
        vals = cols[name]
        if vals.size:
            row = {
                "phase": name,
                "p50": float(np.percentile(vals, 50)),
                "p99": float(np.percentile(vals, 99)),
                "mean": float(np.mean(vals)),
                "share": float(np.sum(vals)) / total if total > 0 else 0.0,
            }
        else:
            row = {"phase": name, "p50": 0.0, "p99": 0.0, "mean": 0.0,
                   "share": 0.0}
        rows.append(row)
    return rows


def worst_requests(
    data: Union[str, RequestTraceData], k: int = 10
) -> list[RequestView]:
    """The worst ``k`` traced requests by end-to-end latency."""
    return load_reqtrace(data).worst(k)


def exemplar_requests(
    data: Union[str, RequestTraceData],
    t0: float,
    t1: float,
    k: int = 3,
) -> list[RequestView]:
    """Representative requests *completing* in ``[t0, t1]``, worst first.

    This is the exemplar-linking hook: a timeseries spike or an
    ``slo_alert`` window hands its bounds here and gets back the actual
    request ids to blame, instead of an anonymous aggregate.
    """
    return load_reqtrace(data).worst(k, completed_in=(t0, t1))


# ----------------------------------------------------------------------
# Waterfalls
# ----------------------------------------------------------------------
def render_waterfall(
    view: RequestView, data: Optional[RequestTraceData] = None
) -> str:
    """One request's causal waterfall as scaled ASCII bars.

    With ``data`` given, the node/retry/breaker events that fired during
    the request's lifetime are appended — the churn context a bare phase
    decomposition cannot show.
    """
    b = view.batch
    phases = view.phases()
    lat = view.latency
    header = {
        "request": view.rid,
        "model": b.model,
        "latency_ms": lat * 1e3,
        "arrival_s": view.arrival,
        "completed_s": b.completed_at,
        "batch": b.batch_id,
        "peers": view.peers,
        "deadline_set_by": (
            f"request {view.deadline_rid}"
            if view.deadline_rid != view.rid
            else "this request (earliest arrival)"
        ),
        "hardware": b.hardware or "-",
        "mode": b.mode,
        "co_run": b.co_run,
        "retries": b.retries,
    }
    if view.slo_seconds is not None:
        header["slo_ms"] = view.slo_seconds * 1e3
        header["verdict"] = "VIOLATED" if view.violated else "met"
    lines = [render_kv(header, title=f"request {view.rid} waterfall")]
    scale = _BAR_WIDTH / lat if lat > 0 else 0.0
    width = max(len(p) for p in PHASES)
    for name in PHASES:
        val = phases[name]
        bar = "#" * max(0, round(val * scale))
        if val > 0 and not bar:
            bar = "."  # visible tick for sub-pixel phases
        share = 100.0 * val / lat if lat > 0 else 0.0
        lines.append(
            f"  {name.ljust(width)} |{bar.ljust(_BAR_WIDTH)}| "
            f"{val * 1e3:9.3f} ms  {share:5.1f}%"
        )
    if data is not None:
        events = data.events_between(view.arrival, b.completed_at)
        if events:
            rows = [
                [round(e["t"], 3), e["kind"],
                 " ".join(f"{k}={v}" for k, v in e.items()
                          if k not in ("t", "kind"))]
                for e in events
            ]
            lines.append(render_table(
                ["t", "event", "detail"], rows,
                title=f"  events during request {view.rid}",
            ))
    return "\n".join(lines)


def render_forensics_report(
    data: Union[str, RequestTraceData], top_k: int = 10
) -> str:
    """The full request-level post-mortem: summary, fleet decomposition,
    and the worst-``top_k`` causal waterfalls."""
    data = load_reqtrace(data)
    parts: list[str] = []
    meta = data.meta
    parts.append(render_kv(
        {
            "schema": meta.get("schema"),
            "requests_seen": meta.get("n_requests_seen"),
            "requests_traced": data.n_requests_traced,
            "batches_traced": f"{meta.get('n_batches_traced')} of "
                              f"{meta.get('n_batches_seen')}",
            "sample": meta.get("sample"),
            "tail_k": meta.get("tail_k"),
            "horizon_s": meta.get("horizon"),
            "events": len(data.events),
            "events_dropped": meta.get("events_dropped", 0),
        },
        title="request trace summary",
    ))
    rows = phase_decomposition(data)
    parts.append(render_table(
        ["phase", "p50_ms", "p99_ms", "mean_ms", "share_%"],
        [
            [r["phase"], round(r["p50"] * 1e3, 3), round(r["p99"] * 1e3, 3),
             round(r["mean"] * 1e3, 3), round(100 * r["share"], 1)]
            for r in rows
        ],
        title=f"per-phase latency decomposition "
              f"({data.n_requests_traced} requests)",
    ))
    worst = data.worst(top_k)
    if worst:
        for view in worst:
            parts.append(render_waterfall(view, data))
    else:
        parts.append("no requests traced")
    return "\n\n".join(parts)


# ----------------------------------------------------------------------
# SVG export (self-contained, like the other pillars' artifacts)
# ----------------------------------------------------------------------
def render_waterfall_svg(
    data: Union[str, RequestTraceData], top_k: int = 10
) -> str:
    """The worst-``top_k`` waterfalls as one self-contained SVG string.

    Each request is one stacked horizontal bar (phases in timeline
    order, one fill color per phase), scaled to the worst latency so
    bars are visually comparable; a legend maps colors to phase names.
    """
    data = load_reqtrace(data)
    worst = data.worst(top_k)
    bar_h, gap, left, right, top = 22, 8, 230, 30, 58
    chart_w = 640
    legend_h = 22
    height = top + legend_h + len(worst) * (bar_h + gap) + 20
    width = left + chart_w + right
    max_lat = worst[0].latency if worst else 1.0
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="12">',
        f'<text x="{left}" y="20" font-size="14" font-weight="bold">'
        f'worst-{len(worst)} request waterfalls '
        f'({escape(str(data.meta.get("n_requests_seen", 0)))} requests seen)'
        f"</text>",
    ]
    # Legend row.
    x = left
    for name in PHASES:
        out.append(
            f'<rect x="{x}" y="30" width="12" height="12" '
            f'fill="{_SVG_COLORS[name]}"/>'
        )
        out.append(f'<text x="{x + 16}" y="40">{escape(name)}</text>')
        x += 16 + 8 * len(name) + 14
    y = top + legend_h
    for view in worst:
        phases = view.phases()
        label = f"rid {view.rid}  {view.latency * 1e3:8.1f} ms"
        if view.violated:
            label += "  !"
        out.append(
            f'<text x="8" y="{y + bar_h - 6}">{escape(label)}</text>'
        )
        x = float(left)
        for name in PHASES:
            w = chart_w * max(0.0, phases[name]) / max_lat \
                if max_lat > 0 else 0.0
            if w <= 0:
                continue
            detail = (
                f"{name}: {phases[name] * 1e3:.3f} ms "
                f"(request {view.rid}, batch {view.batch.batch_id}, "
                f"{view.batch.hardware or '-'})"
            )
            out.append(
                f'<rect x="{x:.2f}" y="{y}" width="{max(w, 0.5):.2f}" '
                f'height="{bar_h}" fill="{_SVG_COLORS[name]}">'
                f"<title>{escape(detail)}</title></rect>"
            )
            x += w
        y += bar_h + gap
    out.append("</svg>")
    return "\n".join(out)
