"""Analysis: statistics, breakdowns, attribution, diffing, rendering."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "attribution": (
        "ATTRIBUTION_CAUSES", "AttributionReport", "CounterfactualVerdict",
        "ViolationRecord", "attribute_trace", "render_attribution_html",
        "render_attribution_report", "write_attribution_json",
    ),
    "breakdown": ("TailBreakdown", "tail_breakdown_of"),
    "cost_report": (
        "ComplianceCost", "cost_of_compliance", "render_cost_report",
        "write_cost_frontier_svg", "write_cost_json",
    ),
    "trace_diff": ("PhaseDelta", "TraceDiff", "diff_traces", "render_trace_diff"),
    "report": (
        "SCHEME_LABELS", "format_value", "render_kv", "render_table",
        "scheme_label",
    ),
    "timeline": ("hardware_timeline", "rate_sparkline", "render_run_timeline"),
    "request_forensics": (
        "exemplar_requests", "load_reqtrace", "phase_decomposition",
        "render_forensics_report", "render_waterfall", "render_waterfall_svg",
        "worst_requests",
    ),
    "trace_report": (
        "BREAKDOWN_COMPONENTS", "breakdown_totals", "decision_rows",
        "load_trace", "render_trace_report", "slowest_request_rows",
        "switch_rows",
    ),
    "stats": (
        "RunSummary", "cdf_points", "compliance_percent", "drop_outliers",
        "mean_without_outliers", "normalize", "percentile", "summarize_runs",
    ),
})
