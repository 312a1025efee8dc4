"""Trace-file analysis: timeline and latency-breakdown reconstruction.

Consumes the JSONL export of :mod:`repro.telemetry` and rebuilds, without
any access to the original run objects:

* the **latency breakdown** — per-request sums of each component
  (batching wait, cold-start wait, queue delay, solo execution,
  interference inflation), which must agree with what
  :class:`~repro.simulator.metrics.MetricsCollector` reported live;
* the **decision timeline** — every Algorithm 1 tick with its candidate
  table and hysteresis state, every reconfiguration, every autoscaler
  action, every injected failure;
* a rendered plain-text report tying the two together.

This is the post-mortem path: ``python -m repro trace-report run.jsonl``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.analysis.report import render_kv, render_table
from repro.telemetry.exporters import TraceData, read_jsonl, summary_counts
from repro.telemetry.reqtrace import PHASES

__all__ = [
    "BREAKDOWN_COMPONENTS",
    "breakdown_totals",
    "decision_rows",
    "hardware_spans",
    "load_trace",
    "render_trace_report",
    "slowest_request_rows",
    "switch_rows",
]

#: The latency components, in stacking order (Figs 1 and 4, plus the
#: ``failure_wait`` bucket the resilience layer charges failed dispatch
#: attempts and straggler inflation to).  Aliased to the request
#: tracer's :data:`~repro.telemetry.reqtrace.PHASES` so the breakdown
#: table, the attribution causes, and per-request waterfalls all cite
#: one set of phase names.
BREAKDOWN_COMPONENTS: tuple[str, ...] = PHASES


def load_trace(path_or_data: Union[str, TraceData]) -> TraceData:
    """Accept either a JSONL path or an already-parsed :class:`TraceData`."""
    if isinstance(path_or_data, TraceData):
        return path_or_data
    return read_jsonl(path_or_data)


# ----------------------------------------------------------------------
# Latency breakdown
# ----------------------------------------------------------------------
def breakdown_totals(
    trace: Union[str, TraceData], per_request: bool = False
) -> dict[str, float]:
    """Sum each latency component over the request spans.

    With ``per_request=True`` every batch's components are weighted by
    its request count (all requests in a batch share the batch's
    breakdown), matching per-request aggregate views.  The plain sums
    (default) match the sums of the collector's batch-log columns
    (``MetricsCollector.log.rows()[c]``) — the spans carry the very same
    numbers the log holds.
    """
    data = load_trace(trace)
    out = {c: 0.0 for c in BREAKDOWN_COMPONENTS}
    n_requests = 0
    for span in data.spans_in("request"):
        attrs = span.get("attrs", {})
        weight = int(attrs.get("n", 1)) if per_request else 1
        n_requests += int(attrs.get("n", 1))
        for c in BREAKDOWN_COMPONENTS:
            out[c] += float(attrs.get(c, 0.0)) * weight
    out["total"] = sum(out[c] for c in BREAKDOWN_COMPONENTS)
    out["n_requests"] = float(n_requests)
    return out


# ----------------------------------------------------------------------
# Decision timeline
# ----------------------------------------------------------------------
def decision_rows(trace: Union[str, TraceData]) -> list[dict[str, Any]]:
    """Algorithm 1's audit log as flat rows, in time order."""
    data = load_trace(trace)
    rows = []
    for e in data.events_named("hardware_selection.tick"):
        attrs = e.get("attrs", {})
        rows.append(
            {
                "t": float(e.get("t", 0.0)),
                "predicted_rps": attrs.get("predicted_rps"),
                "backlog": attrs.get("backlog"),
                "current": attrs.get("current"),
                "chosen": attrs.get("chosen"),
                "wait_ctr": attrs.get("wait_ctr"),
                "switch": attrs.get("switch_requested"),
                "emergency": attrs.get("emergency"),
                "n_candidates": len(attrs.get("candidates", [])),
            }
        )
    rows.sort(key=lambda r: r["t"])
    return rows


def switch_rows(trace: Union[str, TraceData]) -> list[dict[str, Any]]:
    """Completed traffic reroutes (``reconfig.switch`` events)."""
    data = load_trace(trace)
    rows = [
        {
            "t": float(e.get("t", 0.0)),
            "from": e.get("attrs", {}).get("from_hw"),
            "to": e.get("attrs", {}).get("to_hw"),
        }
        for e in data.events_named("reconfig.switch")
    ]
    rows.sort(key=lambda r: r["t"])
    return rows


def hardware_spans(trace: Union[str, TraceData]) -> list[dict[str, Any]]:
    """Node leases reconstructed from the lease spans."""
    data = load_trace(trace)
    rows = [
        {
            "hardware": s.get("attrs", {}).get("hardware", s.get("name")),
            "start": float(s.get("start", 0.0)),
            "end": float(s.get("end", 0.0)),
            "cost": s.get("attrs", {}).get("cost"),
        }
        for s in data.spans_in("lease")
    ]
    rows.sort(key=lambda r: (r["start"], r["end"]))
    return rows


def slowest_request_rows(
    trace: Union[str, TraceData],
    top_k: int,
    reqtrace: Optional[Any] = None,
) -> tuple[list[list[Any]], list[str], str]:
    """The ``--top-k`` slowest-requests table, as ``(rows, headers, title)``.

    With per-request trace data (a :class:`RequestTraceData` or a
    ``repro.reqtrace/1`` JSONL path) each row is one *request* with its
    full causal context — phases, peers, hardware, retries — fed by
    :mod:`repro.analysis.request_forensics`.  Without it, the ranking
    falls back to the latency-only view the run trace can support: the
    slowest request *spans* (batches) by duration.  Both shapes render
    through the same table machinery, so ``trace-report --top-k`` works
    (and exits 0) whether or not the run recorded a request trace.
    """
    k = max(0, int(top_k))
    if reqtrace is not None:
        from repro.analysis.request_forensics import (
            load_reqtrace,
            worst_requests,
        )
        data = load_reqtrace(reqtrace)
        rows = []
        for v in worst_requests(data, k):
            p = v.phases()
            top_phase = v.dominant_phase
            rows.append([
                v.rid,
                round(v.latency * 1e3, 2),
                v.batch.batch_id,
                v.peers,
                v.batch.hardware or "-",
                v.batch.retries,
                top_phase,
                round(100 * p[top_phase] / v.latency, 1)
                if v.latency > 0 else 0.0,
                "yes" if v.violated else ("-" if v.violated is None else ""),
            ])
        return (
            rows,
            ["rid", "latency_ms", "batch", "peers", "hardware",
             "retries", "top_phase", "top_%", "violated"],
            f"slowest {len(rows)} requests (causal)",
        )
    data = load_trace(trace)
    spans = sorted(
        data.spans_in("request"),
        key=lambda s: float(s.get("start", 0.0))
        - float(s.get("end", 0.0)),
    )[:k]
    rows = [
        [round((float(s.get("end", 0.0)) - float(s.get("start", 0.0)))
               * 1e3, 2),
         round(float(s.get("start", 0.0)), 2),
         int(s.get("attrs", {}).get("n", 1)),
         s.get("attrs", {}).get("hardware", "-")]
        for s in spans
    ]
    return (
        rows,
        ["latency_ms", "start_s", "n_requests", "hardware"],
        f"slowest {len(rows)} request spans (latency-only; run with "
        "--reqtrace for causal waterfalls)",
    )


def _autoscaler_summary(data: TraceData) -> dict[str, int]:
    spawned = reaped = reactive = 0
    for e in data.events_named("autoscaler.tick"):
        spawned += int(e.get("attrs", {}).get("spawned", 0))
        reaped += int(e.get("attrs", {}).get("reaped", 0))
    for e in data.events_named("autoscaler.reactive_scale_up"):
        reactive += int(e.get("attrs", {}).get("spawned", 0))
    return {
        "predictive_spawns": spawned,
        "reactive_spawns": reactive,
        "reaped": reaped,
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_trace_report(
    trace: Union[str, TraceData],
    max_decision_rows: int = 30,
    top_k: int = 0,
    reqtrace: Optional[Any] = None,
) -> str:
    """The full post-mortem: summary, breakdown, decisions, switches.

    ``top_k > 0`` appends the slowest-requests table — causal (phase
    context per request) when ``reqtrace`` data is given, latency-only
    otherwise (see :func:`slowest_request_rows`).
    """
    data = load_trace(trace)
    parts: list[str] = []

    meta = dict(data.meta)
    counts = summary_counts(data)
    parts.append(render_kv({**meta, **counts}, title="trace summary"))

    bd = breakdown_totals(data)
    n = max(1.0, bd.pop("n_requests"))
    parts.append(
        render_table(
            ["component", "batch_sum_s", "share_%"],
            [
                [c, round(bd[c], 4), round(100 * bd[c] / bd["total"], 1) if bd["total"] else 0.0]
                for c in BREAKDOWN_COMPONENTS
            ],
            title=f"latency breakdown ({int(n)} requests)",
        )
    )

    # SLO violation headline.  The deep dive (cause attribution and the
    # counterfactual replay) lives in ``trace-attribution``; the
    # post-mortem just says whether there is anything to dig into —
    # including, explicitly, when there is not (empty or fully-compliant
    # traces must not look like a tooling failure).
    slo = data.meta.get("slo_seconds")
    req_spans = data.spans_in("request")
    if not req_spans:
        parts.append("no SLO violations (no request spans recorded)")
    elif slo is not None:
        slo = float(slo)
        violating = [
            s
            for s in req_spans
            if float(s.get("end", 0.0)) - float(s.get("start", 0.0)) > slo
        ]
        if violating:
            worst = max(
                float(s.get("end", 0.0)) - float(s.get("start", 0.0))
                for s in violating
            )
            n_req = sum(
                int(s.get("attrs", {}).get("n", 1)) for s in violating
            )
            parts.append(
                f"SLO violations: {len(violating)} spans / {n_req} requests "
                f"(worst {worst * 1e3:.1f} ms against "
                f"{slo * 1e3:.0f} ms) — run `trace-attribution` for cause "
                "attribution and counterfactual replay"
            )
        else:
            parts.append("no SLO violations")

    decisions = decision_rows(data)
    if decisions:
        shown = decisions[-max_decision_rows:]
        rows = [
            [
                round(r["t"], 2),
                round(r["predicted_rps"], 1) if r["predicted_rps"] is not None else "-",
                r["backlog"],
                r["current"] or "-",
                r["chosen"],
                r["wait_ctr"],
                "yes" if r["switch"] else "",
                "!" if r["emergency"] else "",
            ]
            for r in shown
        ]
        title = "hardware-selection audit"
        if len(decisions) > len(shown):
            title += f" (last {len(shown)} of {len(decisions)} ticks)"
        parts.append(
            render_table(
                ["t", "pred_rps", "backlog", "current", "chosen",
                 "wait_ctr", "switch", "emerg"],
                rows,
                title=title,
            )
        )

    switches = switch_rows(data)
    if switches:
        parts.append(
            render_table(
                ["t", "from", "to"],
                [[round(s["t"], 2), s["from"] or "-", s["to"]] for s in switches],
                title=f"traffic reroutes ({len(switches)})",
            )
        )

    leases = hardware_spans(data)
    if leases:
        parts.append(
            render_table(
                ["hardware", "start", "end", "lease_s", "cost_$"],
                [
                    [
                        r["hardware"],
                        round(r["start"], 2),
                        round(r["end"], 2),
                        round(r["end"] - r["start"], 2),
                        round(r["cost"], 5) if r["cost"] is not None else "-",
                    ]
                    for r in leases
                ],
                title="node leases",
            )
        )

    if top_k > 0:
        rows, headers, title = slowest_request_rows(data, top_k, reqtrace)
        if rows:
            parts.append(render_table(headers, rows, title=title))
        else:
            parts.append("no request spans recorded (nothing to rank)")

    scaling = _autoscaler_summary(data)
    if any(scaling.values()):
        parts.append(render_kv(scaling, title="autoscaler activity"))

    faults = data.events_named("chaos.inject")
    if faults:
        parts.append(
            render_table(
                ["t", "kind", "downtime_s"],
                [
                    [round(float(e.get("t", 0.0)), 2),
                     e.get("attrs", {}).get("kind"),
                     e.get("attrs", {}).get("downtime_seconds", "-")]
                    for e in faults
                ],
                title=f"injected failures ({len(faults)})",
            )
        )
    return "\n\n".join(parts)
