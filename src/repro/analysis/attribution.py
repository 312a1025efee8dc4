"""SLO-violation attribution: why did a request miss, and was it avoidable?

Consumes the JSONL trace (or a live :class:`~repro.telemetry.exporters.
TraceData`) and answers the two questions the evaluation revolves around:

1. **Cause attribution** — for every SLO-violating request span, split the
   end-to-end latency across the recorded breakdown components
   (``batching_wait``, ``cold_start_wait``, ``queue_delay``, ``exec_solo``,
   ``interference_extra``, ``failure_wait``) plus an ``unattributed``
   residual absorbing
   accounting slop, so the attributed seconds **sum exactly to the span's
   end-to-end latency** (the conservation property
   ``tests/analysis/test_attribution.py`` asserts to 1e-9).  The dominant
   cause is the largest recorded component.
2. **Counterfactual hardware replay** — join each violation with the
   nearest preceding ``hardware_selection.tick`` decision and re-run
   ``choose_best_HW`` over the *recorded* candidate table
   (:func:`repro.core.hardware_selection.choose_best_row`; pure replay of
   logged state, no re-simulation) to label the violation:

   * ``mis-selected`` — the chosen node was predicted infeasible while a
     cheaper-or-equal candidate was predicted to meet the budget (the
     selector had no cost excuse);
   * ``avoidable`` — some candidate was predicted to meet the budget, but
     only at higher cost than the chosen node, *or* the chosen node itself
     was predicted feasible (capacity existed; the prediction or transient
     load missed, not the selection rule);
   * ``unavoidable`` — no candidate in the table could meet the budget.

Granularity note: spans are per *batch*; the span latency is the batch's
worst request (its first arrival).  A violating span therefore counts all
``n`` of its requests as violating — a deliberate worst-case convention,
since individual arrival timestamps are not serialised.

Entry points: :func:`attribute_trace` (returns an
:class:`AttributionReport`), :func:`render_attribution_report` (terminal
table), :func:`render_attribution_html` (self-contained HTML with an
inline-SVG attainment timeline; zero external deps), and the CLI's
``trace-attribution`` subcommand.
"""

from __future__ import annotations

import bisect
import html
import json
import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional, Union

from repro.analysis.report import render_kv, render_table
from repro.analysis.trace_report import BREAKDOWN_COMPONENTS, load_trace
from repro.core.hardware_selection import CandidateRow, choose_best_row
from repro.telemetry.exporters import TraceData, _jsonable

__all__ = [
    "ATTRIBUTION_CAUSES",
    "AttributionReport",
    "CounterfactualVerdict",
    "ViolationRecord",
    "attainment_series",
    "attribute_trace",
    "render_attribution_html",
    "render_attribution_report",
]

#: Attribution buckets: the recorded components plus the residual that
#: makes the conservation property exact.  ``failure_wait`` is the
#: injected-fault bucket: failed dispatch attempts and straggler
#: inflation land there, so fault-driven misses separate cleanly from
#: scheduling-driven ones.
ATTRIBUTION_CAUSES: tuple[str, ...] = BREAKDOWN_COMPONENTS + ("unattributed",)

#: Fallback latency-budget fraction when a decision event predates the
#: ``slo_budget`` attribute (matches HardwareSelector's default); the
#: cost report's replay uses it too.
DEFAULT_BUDGET_FRACTION = 0.85

#: Fallback choose_best_HW performance slack (seconds).
DEFAULT_PERF_SLACK = 0.050


@dataclass(frozen=True)
class CounterfactualVerdict:
    """The replay verdict for one violation's governing decision."""

    label: str  # "mis-selected" | "avoidable" | "unavoidable"
    decision_t: float
    budget: float
    chosen: Optional[str]
    chosen_t_max: float
    chosen_predicted_feasible: bool
    #: The candidate that would have met the budget (cheapest feasible),
    #: or None for ``unavoidable``.
    counterfactual_hw: Optional[str]
    counterfactual_t_max: Optional[float]
    counterfactual_cost_per_hour: Optional[float]

    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "decision_t": self.decision_t,
            "budget": self.budget,
            "chosen": self.chosen,
            "chosen_t_max": self.chosen_t_max,
            "chosen_predicted_feasible": self.chosen_predicted_feasible,
            "counterfactual_hw": self.counterfactual_hw,
            "counterfactual_t_max": self.counterfactual_t_max,
            "counterfactual_cost_per_hour": self.counterfactual_cost_per_hour,
        }


@dataclass(frozen=True)
class ViolationRecord:
    """One SLO-violating request span with its attributed seconds."""

    batch_id: Any
    model: str
    hardware: str
    start: float
    end: float
    n_requests: int
    mode: str
    slo_seconds: float
    #: Cause -> seconds; keys are :data:`ATTRIBUTION_CAUSES` and the
    #: values sum exactly to :attr:`latency`.
    attributed: dict[str, float]
    dominant_cause: str
    counterfactual: Optional[CounterfactualVerdict] = None
    #: Resilience-layer retries this batch went through (0 for traces
    #: predating the retry path).
    retries: int = 0

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def over_slo_seconds(self) -> float:
        return self.latency - self.slo_seconds

    def as_dict(self) -> dict[str, Any]:
        return {
            "batch_id": self.batch_id,
            "model": self.model,
            "hardware": self.hardware,
            "start": self.start,
            "end": self.end,
            "latency": self.latency,
            "n_requests": self.n_requests,
            "mode": self.mode,
            "slo_seconds": self.slo_seconds,
            "dominant_cause": self.dominant_cause,
            "retries": self.retries,
            "attributed": dict(self.attributed),
            "counterfactual": (
                self.counterfactual.as_dict()
                if self.counterfactual is not None
                else None
            ),
        }


# ----------------------------------------------------------------------
# Per-span attribution
# ----------------------------------------------------------------------
def _attribute_span(
    span: dict[str, Any], slo_seconds: float
) -> ViolationRecord:
    attrs = span.get("attrs", {})
    start = float(span.get("start", 0.0))
    end = float(span.get("end", 0.0))
    latency = end - start
    components = {
        c: float(attrs.get(c, 0.0) or 0.0) for c in BREAKDOWN_COMPONENTS
    }
    # Conservation by construction: whatever the recorded components do
    # not cover (accounting slop, clamped phases) lands in the residual,
    # which may be negative when components over-count.
    attributed = dict(components)
    attributed["unattributed"] = latency - sum(components.values())
    dominant = max(components, key=lambda c: components[c])
    if components[dominant] <= 0.0:
        dominant = "unattributed"
    return ViolationRecord(
        batch_id=attrs.get("batch_id"),
        model=str(attrs.get("model", "?")),
        hardware=str(attrs.get("hardware", span.get("track", "?"))),
        start=start,
        end=end,
        n_requests=int(attrs.get("n", 1)),
        mode=str(attrs.get("mode", "?")),
        slo_seconds=slo_seconds,
        attributed=attributed,
        dominant_cause=dominant,
        retries=int(attrs.get("retries", 0) or 0),
    )


# ----------------------------------------------------------------------
# Counterfactual replay
# ----------------------------------------------------------------------
def _decision_index(
    data: TraceData,
) -> tuple[list[float], list[dict[str, Any]]]:
    decisions = sorted(
        data.events_named("hardware_selection.tick"),
        key=lambda e: float(e.get("t", 0.0)),
    )
    return [float(e.get("t", 0.0)) for e in decisions], decisions


class TickReplay(NamedTuple):
    """One recorded ``hardware_selection.tick``, parsed for replay."""

    budget: float
    chosen_name: Optional[str]
    #: The chosen node's candidate row (None if the table lacks it).
    chosen: Optional[CandidateRow]
    #: The candidate rows whose predicted tail fits the budget.
    feasible: list[CandidateRow]


def replay_tick(
    event: dict[str, Any], slo_seconds: Optional[float]
) -> TickReplay:
    """Parse one logged candidate table against its latency budget.

    The budget is the tick's recorded ``slo_budget``; a tick that
    predates it gets ``DEFAULT_BUDGET_FRACTION`` of ``slo_seconds``, and
    with no SLO either, no budget (every candidate is feasible).
    """
    attrs = event.get("attrs", {})
    budget = attrs.get("slo_budget")
    if budget is None:
        budget = (
            float(slo_seconds) * DEFAULT_BUDGET_FRACTION
            if slo_seconds is not None
            else math.inf
        )
    budget = float(budget)
    rows = [CandidateRow.from_attrs(c) for c in attrs.get("candidates", [])]
    chosen_name = attrs.get("chosen")
    chosen = next((r for r in rows if r.hw_name == chosen_name), None)
    feasible = [r for r in rows if r.least_t_max <= budget]
    return TickReplay(budget, chosen_name, chosen, feasible)


def _replay_decision(
    event: dict[str, Any], slo_seconds: float
) -> CounterfactualVerdict:
    """Re-run ``choose_best_HW`` over one logged candidate table and
    judge whether the violation it governed was avoidable."""
    budget, chosen_name, chosen_row, feasible = replay_tick(event, slo_seconds)
    chosen_t = chosen_row.least_t_max if chosen_row else float("inf")
    chosen_feasible = chosen_row is not None and chosen_row.least_t_max <= budget

    if not feasible:
        return CounterfactualVerdict(
            label="unavoidable",
            decision_t=float(event.get("t", 0.0)),
            budget=budget,
            chosen=chosen_name,
            chosen_t_max=chosen_t,
            chosen_predicted_feasible=False,
            counterfactual_hw=None,
            counterfactual_t_max=None,
            counterfactual_cost_per_hour=None,
        )

    # The candidate a correct selection would have landed on: replay the
    # live rule over the feasible rows (cheapest within slack).
    perf_slack = event.get("attrs", {}).get("perf_slack", DEFAULT_PERF_SLACK)
    best = choose_best_row(
        feasible, budget, perf_slack_seconds=float(perf_slack)
    )
    cheaper_or_equal = [
        r
        for r in feasible
        if r.hw_name != chosen_name
        and (
            chosen_row is None
            or r.cost_per_hour <= chosen_row.cost_per_hour
        )
    ]
    if not chosen_feasible and cheaper_or_equal:
        label = "mis-selected"
        target = min(
            cheaper_or_equal, key=lambda r: (r.cost_per_hour, r.least_t_max)
        )
    else:
        label = "avoidable"
        target = best
    return CounterfactualVerdict(
        label=label,
        decision_t=float(event.get("t", 0.0)),
        budget=budget,
        chosen=chosen_name,
        chosen_t_max=chosen_t,
        chosen_predicted_feasible=chosen_feasible,
        counterfactual_hw=target.hw_name,
        counterfactual_t_max=target.least_t_max,
        counterfactual_cost_per_hour=target.cost_per_hour,
    )


# ----------------------------------------------------------------------
# Attainment timeline (for the HTML report and trace-diff context)
# ----------------------------------------------------------------------
def attainment_series(
    data: TraceData,
    slo_seconds: float,
    window_seconds: float = 30.0,
    n_points: int = 120,
) -> list[tuple[float, float]]:
    """Windowed request-weighted attainment sampled across the run.

    Each point ``(t, attainment)`` covers completions in ``(t - window,
    t]``; batch granularity (a violating span counts all its requests).
    Empty windows report 1.0 (vacuous attainment, matching
    :meth:`repro.framework.slo.SLO.compliance`).
    """
    spans = data.spans_in("request")
    if not spans:
        return []
    completions = sorted(
        (
            float(s.get("end", 0.0)),
            int(s.get("attrs", {}).get("n", 1)),
            (float(s.get("end", 0.0)) - float(s.get("start", 0.0)))
            > slo_seconds,
        )
        for s in spans
    )
    t_end = completions[-1][0]
    t_start = min(c[0] for c in completions)
    n_points = max(2, int(n_points))
    step = max((t_end - t_start) / (n_points - 1), 1e-9)
    ends = [c[0] for c in completions]
    out: list[tuple[float, float]] = []
    for i in range(n_points):
        t = t_start + i * step
        lo = bisect.bisect_left(ends, t - window_seconds)
        hi = bisect.bisect_right(ends, t)
        total = viol = 0
        for _, n, violated in completions[lo:hi]:
            total += n
            viol += n if violated else 0
        out.append((t, 1.0 - viol / total if total else 1.0))
    return out


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
@dataclass
class AttributionReport:
    """The full attribution analysis of one trace."""

    slo_seconds: float
    n_request_spans: int
    n_requests: int
    violations: list[ViolationRecord]
    meta: dict[str, Any] = field(default_factory=dict)
    #: (t, attainment) samples for the timeline rendering.
    attainment: list[tuple[float, float]] = field(default_factory=list)
    #: Recorded ``slo_alert`` events (dicts straight from the trace).
    alerts: list[dict[str, Any]] = field(default_factory=list)
    #: Counts of the resilience layer's ``retry.*`` events in the trace.
    retry_summary: dict[str, int] = field(default_factory=dict)

    @property
    def n_violating_requests(self) -> int:
        return sum(v.n_requests for v in self.violations)

    @property
    def overall_attainment(self) -> float:
        if self.n_requests == 0:
            return 1.0
        return 1.0 - self.n_violating_requests / self.n_requests

    def seconds_by_cause(self) -> dict[str, float]:
        """Attributed seconds summed over all violations; the values sum
        to the total end-to-end latency of the violating spans."""
        out = {c: 0.0 for c in ATTRIBUTION_CAUSES}
        for v in self.violations:
            for c in ATTRIBUTION_CAUSES:
                out[c] += v.attributed[c]
        return out

    def cause_table(self) -> list[dict[str, Any]]:
        """Rows keyed (model, hardware, dominant cause): violation counts
        and the seconds attributed to that cause on those spans."""
        acc: dict[tuple[str, str, str], dict[str, Any]] = {}
        for v in self.violations:
            key = (v.model, v.hardware, v.dominant_cause)
            row = acc.setdefault(
                key,
                {
                    "model": v.model,
                    "hardware": v.hardware,
                    "cause": v.dominant_cause,
                    "batches": 0,
                    "requests": 0,
                    "cause_seconds": 0.0,
                    "over_slo_seconds": 0.0,
                },
            )
            row["batches"] += 1
            row["requests"] += v.n_requests
            row["cause_seconds"] += v.attributed[v.dominant_cause]
            row["over_slo_seconds"] += v.over_slo_seconds
        return [acc[k] for k in sorted(acc)]

    def counterfactual_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            label = (
                v.counterfactual.label if v.counterfactual else "no-decision"
            )
            out[label] = out.get(label, 0) + 1
        return out

    def failure_labels(self) -> dict[str, int]:
        """Split the fault-dominated violations by retry outcome.

        A violating span whose dominant cause is ``failure_wait`` either
        never got a retry (``avoidable-by-retry`` — the deadline-aware
        retry policy could have re-driven it) or was retried and still
        missed (``retried-still-late`` — the outage ate the whole SLO
        budget, an unavoidable miss).  Spans dominated by other causes
        are not counted here.
        """
        out = {"avoidable-by-retry": 0, "retried-still-late": 0}
        for v in self.violations:
            if v.dominant_cause != "failure_wait":
                continue
            if v.retries > 0:
                out["retried-still-late"] += 1
            else:
                out["avoidable-by-retry"] += 1
        return out

    def to_json(self) -> dict[str, Any]:
        """The machine-readable report (see docs/OBSERVABILITY.md for the
        schema).  Strictly JSON-serialisable: non-finite floats (an
        infeasible candidate's ``inf`` T_max) become ``None``."""
        return _jsonable({
            "schema": "repro.attribution/1",
            "slo_seconds": self.slo_seconds,
            "meta": dict(self.meta),
            "n_request_spans": self.n_request_spans,
            "n_requests": self.n_requests,
            "n_violating_spans": len(self.violations),
            "n_violating_requests": self.n_violating_requests,
            "attainment": self.overall_attainment,
            "seconds_by_cause": self.seconds_by_cause(),
            "cause_table": self.cause_table(),
            "counterfactual_labels": self.counterfactual_counts(),
            "failure_labels": self.failure_labels(),
            "retry_summary": dict(self.retry_summary),
            "n_alerts": len(self.alerts),
            "violations": [v.as_dict() for v in self.violations],
        })


def attribute_trace(
    trace: Union[str, TraceData],
    slo_seconds: Optional[float] = None,
) -> AttributionReport:
    """Run the full attribution analysis over a trace.

    ``slo_seconds`` defaults to the trace's recorded ``meta.slo_seconds``;
    passing it explicitly re-judges the same trace against a different
    deadline (useful for what-if sweeps).
    """
    data = load_trace(trace)
    if slo_seconds is None:
        slo_seconds = data.meta.get("slo_seconds")
    if slo_seconds is None:
        raise ValueError(
            "trace meta carries no slo_seconds; pass slo_seconds explicitly"
        )
    slo_seconds = float(slo_seconds)

    spans = data.spans_in("request")
    n_requests = sum(int(s.get("attrs", {}).get("n", 1)) for s in spans)
    violations = [
        _attribute_span(s, slo_seconds)
        for s in spans
        if float(s.get("end", 0.0)) - float(s.get("start", 0.0)) > slo_seconds
    ]

    times, decisions = _decision_index(data)
    if decisions:
        joined: list[ViolationRecord] = []
        for v in violations:
            # The governing decision: the last tick at or before the
            # batch's span start (its first arrival); a violation before
            # the first tick joins with that first tick.
            i = bisect.bisect_right(times, v.start) - 1
            event = decisions[max(0, i)]
            verdict = _replay_decision(event, slo_seconds)
            joined.append(
                ViolationRecord(
                    batch_id=v.batch_id, model=v.model, hardware=v.hardware,
                    start=v.start, end=v.end, n_requests=v.n_requests,
                    mode=v.mode, slo_seconds=v.slo_seconds,
                    attributed=v.attributed, dominant_cause=v.dominant_cause,
                    counterfactual=verdict, retries=v.retries,
                )
            )
        violations = joined

    violations.sort(key=lambda v: v.start)
    return AttributionReport(
        slo_seconds=slo_seconds,
        n_request_spans=len(spans),
        n_requests=n_requests,
        violations=violations,
        meta=dict(data.meta),
        attainment=attainment_series(data, slo_seconds),
        alerts=data.events_named("slo_alert"),
        retry_summary={
            kind: len(data.events_named(f"retry.{kind}"))
            for kind in ("schedule", "dispatch", "abandoned", "shed")
            if data.events_named(f"retry.{kind}")
        },
    )


# ----------------------------------------------------------------------
# Terminal rendering
# ----------------------------------------------------------------------
def render_attribution_report(
    report: AttributionReport, max_rows: int = 20
) -> str:
    """The terminal view: headline, cause table, counterfactual verdicts."""
    parts: list[str] = []
    parts.append(
        render_kv(
            {
                "SLO": f"{report.slo_seconds * 1e3:.0f} ms",
                "request spans": report.n_request_spans,
                "requests": report.n_requests,
                "violating spans": len(report.violations),
                "violating requests (worst-case)": report.n_violating_requests,
                "attainment": f"{100 * report.overall_attainment:.2f}%",
                "slo_alert events": len(report.alerts),
            },
            title="slo attribution",
        )
    )
    if not report.violations:
        parts.append("no SLO violations")
        return "\n\n".join(parts)

    seconds = report.seconds_by_cause()
    total = sum(seconds.values())
    parts.append(
        render_table(
            ["cause", "seconds", "share_%"],
            [
                [c, round(seconds[c], 4),
                 round(100 * seconds[c] / total, 1) if total else 0.0]
                for c in ATTRIBUTION_CAUSES
            ],
            title="attributed seconds over violating spans "
            "(sum = their end-to-end latency)",
        )
    )
    parts.append(
        render_table(
            ["model", "hardware", "dominant cause", "batches", "requests",
             "cause_s", "over_slo_s"],
            [
                [r["model"], r["hardware"], r["cause"], r["batches"],
                 r["requests"], round(r["cause_seconds"], 4),
                 round(r["over_slo_seconds"], 4)]
                for r in report.cause_table()
            ],
            title="violations by model / hardware / cause",
        )
    )
    labels = report.counterfactual_counts()
    if labels:
        parts.append(
            render_kv(labels, title="counterfactual replay verdicts")
        )
    failure_labels = report.failure_labels()
    if any(failure_labels.values()):
        parts.append(
            render_kv(
                failure_labels,
                title="fault-dominated violations by retry outcome",
            )
        )
    if report.retry_summary:
        parts.append(
            render_kv(report.retry_summary, title="retry.* events")
        )
    shown = report.violations[:max_rows]
    rows = []
    for v in shown:
        cf = v.counterfactual
        rows.append(
            [
                v.batch_id,
                v.model,
                v.hardware,
                round(v.latency * 1e3, 1),
                v.dominant_cause,
                cf.label if cf else "-",
                (cf.counterfactual_hw or "-") if cf else "-",
            ]
        )
    title = "violating spans"
    if len(report.violations) > len(shown):
        title += f" (first {len(shown)} of {len(report.violations)})"
    parts.append(
        render_table(
            ["batch", "model", "hardware", "latency_ms", "cause", "verdict",
             "counterfactual_hw"],
            rows,
            title=title,
        )
    )
    return "\n\n".join(parts)


# ----------------------------------------------------------------------
# HTML rendering (self-contained, inline SVG, zero external deps)
# ----------------------------------------------------------------------
_SVG_W, _SVG_H, _SVG_PAD = 840, 220, 40


def _svg_timeline(report: AttributionReport) -> str:
    """Windowed-attainment polyline with the compliance goal line and
    recorded ``slo_alert`` firing markers."""
    pts = report.attainment
    if not pts:
        return "<p>no request spans recorded</p>"
    t0, t1 = pts[0][0], pts[-1][0]
    t_span = max(t1 - t0, 1e-9)
    a_min = min(min(a for _, a in pts), 0.95)
    a_span = max(1.0 - a_min, 1e-9)
    w, h, pad = _SVG_W, _SVG_H, _SVG_PAD

    def x(t: float) -> float:
        return pad + (t - t0) / t_span * (w - 2 * pad)

    def y(a: float) -> float:
        return pad + (1.0 - a) / a_span * (h - 2 * pad)

    poly = " ".join(f"{x(t):.1f},{y(a):.1f}" for t, a in pts)
    goal = 0.99
    parts = [
        f'<svg viewBox="0 0 {w} {h}" role="img" '
        'style="max-width:100%;font-family:monospace;font-size:11px">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#fcfcfc" '
        'stroke="#ccc"/>',
        # goal line
        f'<line x1="{pad}" y1="{y(goal):.1f}" x2="{w - pad}" '
        f'y2="{y(goal):.1f}" stroke="#c60" stroke-dasharray="5,4"/>',
        f'<text x="{w - pad + 2}" y="{y(goal):.1f}" fill="#c60">99%</text>',
        # attainment polyline
        f'<polyline points="{poly}" fill="none" stroke="#26a" '
        'stroke-width="1.5"/>',
        # axes labels
        f'<text x="{pad}" y="{h - 8}">t={t0:.0f}s</text>',
        f'<text x="{w - pad - 50}" y="{h - 8}">t={t1:.0f}s</text>',
        f'<text x="4" y="{y(1.0):.1f}">100%</text>',
        f'<text x="4" y="{y(a_min) - 2:.1f}">{100 * a_min:.1f}%</text>',
    ]
    for e in report.alerts:
        if e.get("attrs", {}).get("state") != "firing":
            continue
        xt = x(float(e.get("t", 0.0)))
        parts.append(
            f'<line x1="{xt:.1f}" y1="{pad}" x2="{xt:.1f}" y2="{h - pad}" '
            'stroke="#d33" stroke-width="1" opacity="0.7">'
            f'<title>slo_alert {html.escape(str(e.get("attrs", {}).get("key")))} '
            f'@ {float(e.get("t", 0.0)):.1f}s</title></line>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _html_table(headers: list[str], rows: list[list[Any]]) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(c))}</td>" for c in row)
        + "</tr>"
        for row in rows
    )
    return (
        '<table style="border-collapse:collapse" border="1" '
        f'cellpadding="4"><thead><tr>{head}</tr></thead>'
        f"<tbody>{body}</tbody></table>"
    )


def render_attribution_html(report: AttributionReport) -> str:
    """A self-contained HTML report: headline, SVG attainment timeline
    with alert markers, cause table, counterfactual verdicts."""
    meta = report.meta
    title = (
        f"SLO attribution — {meta.get('scheme', '?')} / "
        f"{meta.get('model', '?')}"
    )
    seconds = report.seconds_by_cause()
    total = sum(seconds.values())
    cause_rows = [
        [c, f"{seconds[c]:.4f}",
         f"{100 * seconds[c] / total:.1f}%" if total else "0%"]
        for c in ATTRIBUTION_CAUSES
    ]
    table_rows = [
        [r["model"], r["hardware"], r["cause"], r["batches"], r["requests"],
         f"{r['cause_seconds']:.4f}", f"{r['over_slo_seconds']:.4f}"]
        for r in report.cause_table()
    ]
    cf_rows = [
        [label, count]
        for label, count in sorted(report.counterfactual_counts().items())
    ]
    viol_rows = [
        [
            v.batch_id, v.model, v.hardware, f"{v.latency * 1e3:.1f}",
            v.dominant_cause,
            v.counterfactual.label if v.counterfactual else "-",
            (v.counterfactual.counterfactual_hw or "-")
            if v.counterfactual
            else "-",
        ]
        for v in report.violations[:200]
    ]
    no_viol = (
        "<p><strong>no SLO violations</strong></p>"
        if not report.violations
        else ""
    )
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{html.escape(title)}</title></head>
<body style="font-family:monospace;margin:2em;max-width:{_SVG_W}px">
<h1>{html.escape(title)}</h1>
<p>SLO {report.slo_seconds * 1e3:.0f} ms ·
{report.n_requests} requests in {report.n_request_spans} spans ·
attainment {100 * report.overall_attainment:.2f}% ·
{len(report.violations)} violating spans ·
{len(report.alerts)} slo_alert events</p>
{no_viol}
<h2>Windowed attainment</h2>
{_svg_timeline(report)}
<p>red verticals: <code>slo_alert</code> firing events</p>
<h2>Attributed seconds over violating spans</h2>
{_html_table(['cause', 'seconds', 'share'], cause_rows)}
<h2>Violations by model / hardware / dominant cause</h2>
{_html_table(['model', 'hardware', 'cause', 'batches', 'requests',
              'cause_s', 'over_slo_s'], table_rows)}
<h2>Counterfactual replay verdicts</h2>
{_html_table(['label', 'violations'], cf_rows)}
<h2>Violating spans</h2>
{_html_table(['batch', 'model', 'hardware', 'latency_ms', 'cause',
              'verdict', 'counterfactual_hw'], viol_rows)}
</body></html>
"""


def write_attribution_json(report: AttributionReport, path: str) -> None:
    """Write the machine-readable report as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2)
        fh.write("\n")
