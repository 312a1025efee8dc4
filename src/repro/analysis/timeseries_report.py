"""Fig 9/11-style panels from a recorded time-series bundle.

Where :mod:`repro.analysis.timeline` reconstructs a run's story from the
result object, this module renders the *sampled* story: the columns a
:class:`~repro.telemetry.timeseries.StateSampler` recorded on a fixed
sim-time interval.  Three aligned panel groups mirror the paper's
load-over-time figures:

* **rate vs hardware** — offered and predicted rps sparklines over the
  serving-node strip (which hardware Algorithm 1 had selected at each
  sample instant),
* **per-node occupancy** — one sparkline per hardware spec that was ever
  leased (FBR-derived occupancy for GPUs, lane usage for CPUs),
* **pools & control** — warm/spawning/busy container counts, the
  autoscaler's pool target, queue depth, and the SLO burn rate.

Every panel shares the same horizontal time axis (samples bucketed to
the render width), so vertical alignment *is* temporal alignment.  The
same series can be written as a self-contained SVG for docs and papers.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.analysis.timeline import node_codes
from repro.telemetry.dashboard import sparkline
from repro.telemetry.timeseries import TimeSeriesData, read_timeseries

__all__ = [
    "render_timeseries_report",
    "render_timeseries_file",
    "write_timeseries_svg",
]

#: Columns rendered in the pools & control panel, with display labels.
_CONTROL_SERIES = (
    ("pool.warm_idle", "warm idle"),
    ("pool.spawning", "spawning"),
    ("pool.busy", "busy"),
    ("autoscaler.pool_target", "pool target"),
    ("queue.device", "queue depth"),
    ("slo.burn_rate", "slo burn"),
)


def _bucket(values: np.ndarray, width: int) -> list[float]:
    """NaN-aware mean resampling of ``values`` into ``width`` buckets."""
    if values.size == 0:
        return [math.nan] * width
    edges = np.linspace(0, values.size, width + 1).astype(int)
    out = []
    for a, b in zip(edges, edges[1:]):
        chunk = values[a:b] if b > a else values[min(a, values.size - 1):][:1]
        finite = chunk[~np.isnan(chunk)]
        out.append(float(finite.mean()) if finite.size else math.nan)
    return out


def _stat(values: np.ndarray) -> str:
    finite = values[~np.isnan(values)]
    if finite.size == 0:
        return "no data"
    return (f"last {finite[-1]:.3g}  mean {finite.mean():.3g}  "
            f"max {finite.max():.3g}")


def _hardware_strip(data: TimeSeriesData, width: int) -> tuple[str, str]:
    """The serving-hardware strip plus its legend line.

    ``hw.selected`` holds catalog indices (``meta["hardware_codes"]``
    maps spec name -> index); each bucket renders the node that served
    the *majority* of its samples, ``.`` when no node held the lease.
    """
    col = data.column("hw.selected")
    code_of_name = node_codes()
    names_by_idx = {
        int(idx): name
        for name, idx in (data.meta.get("hardware_codes") or {}).items()
    }
    edges = np.linspace(0, col.size, width + 1).astype(int)
    strip = []
    used: dict[str, str] = {}
    for a, b in zip(edges, edges[1:]):
        chunk = col[a:b] if b > a else col[min(a, col.size - 1):][:1]
        finite = chunk[~np.isnan(chunk)]
        if finite.size == 0:
            strip.append(".")
            continue
        idxs, counts = np.unique(finite.astype(int), return_counts=True)
        name = names_by_idx.get(int(idxs[np.argmax(counts)]), "?")
        code = code_of_name.get(name, "?")
        strip.append(code)
        if code not in (".", "?"):
            used.setdefault(code, name)
    legend = " ".join(f"{c}={n}" for c, n in sorted(used.items())) or "(idle)"
    return "".join(strip), legend


def render_timeseries_report(data: TimeSeriesData, width: int = 72) -> str:
    """All panels as aligned terminal text."""
    if width < 8:
        raise ValueError("width must be >= 8")
    meta = data.meta
    head = (
        f"time-series report: {meta.get('scheme', '?')} / "
        f"{meta.get('model', '?')}  "
        f"({data.n_samples} samples @ "
        f"{meta.get('interval_seconds', '?')}s, seed {meta.get('seed', '?')})"
    )
    lines = [head, "=" * len(head), ""]
    if data.n_samples == 0:
        lines.append("(empty bundle: the run ended before the first sample)")
        return "\n".join(lines)
    t0, t1 = float(data.times[0]), float(data.times[-1])
    lines.append(f"time axis: {t0:.1f}s .. {t1:.1f}s")
    lines.append("")

    # --- rate vs hardware -------------------------------------------------
    lines.append("offered vs predicted rate, serving hardware:")
    label_w = 14
    for name, label in (("rate.offered", "offered rps"),
                        ("rate.predicted", "predicted rps")):
        if name not in data.names():
            continue
        col = data.column(name)
        lines.append(f"  {label:<{label_w}s}"
                     f"{sparkline(_bucket(col, width))}  {_stat(col)}")
    if "hw.selected" in data.names():
        strip, legend = _hardware_strip(data, width)
        lines.append(f"  {'serving node':<{label_w}s}{strip}")
        lines.append(f"  {'':<{label_w}s}({legend})")
    lines.append("")

    # --- per-node occupancy ----------------------------------------------
    occ_cols = sorted(
        n for n in data.names()
        if n.startswith("node.") and n.endswith(".occupancy")
    )
    active = [n for n in occ_cols
              if not np.all(np.isnan(data.column(n)))]
    if active:
        lines.append("per-node occupancy (blank = node not leased):")
        for name in active:
            spec = name[len("node."):-len(".occupancy")]
            col = data.column(name)
            lines.append(f"  {spec:<{label_w}s}"
                         f"{sparkline(_bucket(col, width), peak=1.0)}  "
                         f"{_stat(col)}")
        lines.append("")

    # --- pools & control --------------------------------------------------
    present = [(n, lbl) for n, lbl in _CONTROL_SERIES if n in data.names()]
    if present:
        lines.append("pools & control:")
        for name, label in present:
            col = data.column(name)
            lines.append(f"  {label:<{label_w}s}"
                         f"{sparkline(_bucket(col, width))}  {_stat(col)}")
        lines.append("")

    errors = meta.get("probe_errors") or {}
    if errors:
        lines.append("probe errors (series NaN from first failure):")
        for name, err in sorted(errors.items()):
            lines.append(f"  {name}: {err}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_timeseries_file(path: str, width: int = 72) -> str:
    """Load a saved bundle (``.npz`` or JSONL) and render the report."""
    return render_timeseries_report(read_timeseries(path), width=width)


# ---------------------------------------------------------------------------
# SVG export
# ---------------------------------------------------------------------------
_SVG_PANEL_H = 110
_SVG_W = 840
_SVG_PAD = 52


def _svg_polyline(times: np.ndarray, values: np.ndarray, *,
                  y0: float, height: float, t0: float, t1: float,
                  vmax: float, color: str) -> str:
    pts = []
    span = max(t1 - t0, 1e-12)
    for t, v in zip(times, values):
        if math.isnan(v):
            if pts and pts[-1] != "M":
                pts.append("M")  # break the line across NaN gaps
            continue
        x = _SVG_PAD + (t - t0) / span * (_SVG_W - 2 * _SVG_PAD)
        y = y0 + height - (v / max(vmax, 1e-12)) * height
        pts.append(f"{x:.1f},{y:.1f}")
    segs, cur = [], []
    for p in pts:
        if p == "M":
            if len(cur) >= 2:
                segs.append(cur)
            cur = []
        else:
            cur.append(p)
    if len(cur) >= 2:
        segs.append(cur)
    return "".join(
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{" ".join(seg)}"/>'
        for seg in segs
    )


def write_timeseries_svg(
    data: TimeSeriesData,
    path: str,
    metrics: Optional[Sequence[str]] = None,
) -> int:
    """Write stacked per-metric panels as a self-contained SVG.

    ``metrics`` defaults to every non-empty column; returns the number
    of panels written.
    """
    names = list(metrics) if metrics is not None else [
        n for n in sorted(data.names())
        if not np.all(np.isnan(data.column(n)))
    ]
    if data.n_samples == 0:
        names = []
    t0 = float(data.times[0]) if data.n_samples else 0.0
    t1 = float(data.times[-1]) if data.n_samples else 1.0
    total_h = max(len(names), 1) * _SVG_PANEL_H + 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{total_h}" font-family="monospace" font-size="11">',
        f'<rect width="{_SVG_W}" height="{total_h}" fill="white"/>',
    ]
    palette = ("#2563eb", "#dc2626", "#059669", "#7c3aed", "#d97706")
    for i, name in enumerate(names):
        col = data.column(name)
        finite = col[~np.isnan(col)]
        vmax = float(finite.max()) if finite.size else 1.0
        y0 = 20 + i * _SVG_PANEL_H
        h = _SVG_PANEL_H - 36
        parts.append(
            f'<text x="{_SVG_PAD}" y="{y0 - 6}" fill="#111">{name}'
            f'  (max {vmax:.3g})</text>'
        )
        parts.append(
            f'<rect x="{_SVG_PAD}" y="{y0}" '
            f'width="{_SVG_W - 2 * _SVG_PAD}" height="{h}" '
            f'fill="#f8fafc" stroke="#cbd5e1"/>'
        )
        parts.append(_svg_polyline(
            data.times, col, y0=y0, height=h, t0=t0, t1=t1,
            vmax=vmax, color=palette[i % len(palette)],
        ))
        parts.append(
            f'<text x="{_SVG_PAD}" y="{y0 + h + 14}" fill="#555">'
            f'{t0:.0f}s</text>'
            f'<text x="{_SVG_W - _SVG_PAD}" y="{y0 + h + 14}" fill="#555" '
            f'text-anchor="end">{t1:.0f}s</text>'
        )
    if not names:
        parts.append(
            f'<text x="{_SVG_PAD}" y="30" fill="#555">(no samples)</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))
    return len(names)
