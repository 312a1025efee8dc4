"""ASCII timelines: rate curve vs hardware choice over a run.

A terminal-friendly view of what the scheduler did: the offered-rate
sparkline on top, the serving node per time bucket underneath.  Used by
the examples and handy when debugging policies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.framework.system import RunResult
from repro.hardware.catalog import HardwareCatalog, HardwareSpec, default_catalog
from repro.telemetry.dashboard import sparkline
from repro.workloads.traces import Trace

__all__ = [
    "node_code",
    "node_codes",
    "rate_sparkline",
    "hardware_timeline",
    "render_run_timeline",
]

def node_code(spec: HardwareSpec) -> str:
    """One-letter timeline code for a hardware spec.

    GPU nodes take the leading letter of the device model (``NVIDIA
    V100`` -> ``V``, ``K80`` -> ``K``, ``M60`` -> ``M``); all CPU shapes
    collapse to ``c`` — the strip distinguishes accelerator generations,
    not CPU sizes.
    """
    if not spec.is_gpu:
        return "c"
    token = spec.device.split()[-1]
    return token[0].upper() if token and token[0].isalpha() else "?"


def node_codes(catalog: Optional[HardwareCatalog] = None) -> dict[str, str]:
    """Spec-name -> one-letter code map, plus ``"-"`` (no node) -> ``.``."""
    codes = {spec.name: node_code(spec) for spec in (catalog or default_catalog())}
    codes["-"] = "."
    return codes


#: One-letter codes per node type for the timeline strip (derived from
#: the default Table II catalog; restricted catalogs pass their own).
_NODE_CODES = node_codes()


def rate_sparkline(trace: Trace, width: int = 80) -> str:
    """The offered-rate curve as a unicode sparkline of ``width`` chars."""
    if width < 1:
        raise ValueError("width must be >= 1")
    rates = trace.bin_rates
    if rates.size == 0:
        return ""
    edges = np.linspace(0, rates.size, width + 1).astype(int)
    return sparkline([
        rates[a:b].mean() if b > a else 0.0 for a, b in zip(edges, edges[1:])
    ])


def hardware_timeline(
    result: RunResult, duration: float, width: int = 80
) -> str:
    """One character per time bucket naming the node serving traffic."""
    if width < 1:
        raise ValueError("width must be >= 1")
    log = sorted(result.switch_log)
    strip = []
    for i in range(width):
        t = (i + 0.5) * duration / width
        current = "-"
        for when, _frm, to in log:
            if when <= t:
                current = to
            else:
                break
        strip.append(_NODE_CODES.get(current, "?"))
    return "".join(strip)


def render_run_timeline(
    result: RunResult, trace: Trace, width: int = 80
) -> str:
    """Sparkline + hardware strip + legend, ready to print."""
    legend_parts, seen = [], set()
    for spec in default_catalog():
        code = node_code(spec)
        if code in seen:
            continue
        seen.add(code)
        label = spec.device.split()[-1] if spec.is_gpu else "CPU"
        legend_parts.append(f"{code}={label}")
    lines = [
        f"offered rate (peak {trace.peak_rps:.0f} rps):",
        "  " + rate_sparkline(trace, width),
        f"serving node ({' '.join(legend_parts)}):",
        "  " + hardware_timeline(result, trace.duration, width),
    ]
    return "\n".join(lines)
