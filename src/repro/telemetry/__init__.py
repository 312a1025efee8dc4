"""Telemetry: tracing, metrics, and decision auditing for the simulator.

The reproduction's evaluation hinges on *why* the control plane behaves as
it does — which hardware Algorithm 1 picked each tick, how hysteresis
delayed switches, how Equation (1) divided a burst, and where each
request's latency actually went.  This package records the path taken:

* :class:`~repro.telemetry.tracer.Tracer` — per-request **spans** (arrival
  → batching → dispatch → cold start → execution → completion) and
  per-component **decision events** (hardware-selection ticks with their
  full candidate tables, y-split choices, autoscaler actions, chaos
  fault injections, node leases).
* :class:`~repro.telemetry.metrics.MetricsRegistry` — counters (the
  result-cache and executor counts).
* :class:`~repro.telemetry.timeseries.StateSampler` — the run's state
  (rates, serving hardware, queues, pools, occupancy, breakers) sampled
  into columns on a fixed sim-time interval.
* :mod:`~repro.telemetry.exporters` — JSONL and Chrome ``trace_event``
  output (opens directly in Perfetto / ``chrome://tracing``).
* :class:`~repro.telemetry.slo_monitor.SLOMonitor` — live sliding-window
  SLO attainment / burn-rate tracking that emits ``slo_alert`` events
  into the trace timeline.
* :class:`~repro.telemetry.costmeter.CostMeter` — itemizes every
  lease-second into busy / cold-start / idle / reconfiguration dollars,
  attributes busy dollars to requests pro-rata by batch occupancy, and
  rolls up per-(model, hardware) cost tables; its
  :class:`~repro.telemetry.costmeter.CostBudgetMonitor` emits
  edge-triggered ``budget_alert`` events when the burn rate projects
  past the run's dollar budget.
* :mod:`~repro.telemetry.prometheus` — Prometheus text-format snapshot
  of a registry's counters, or of a traced run: its request-latency
  histogram (computed from the batch log at export), the sampler's last
  readings and the monitor windows.
* :class:`~repro.telemetry.reqtrace.RequestTracer` — per-request causal
  phase timelines (arrival → batching → cold start → queue → dispatch →
  interference → retries → completion) feeding the tail-latency
  forensics in :mod:`repro.analysis.request_forensics`.
* :class:`~repro.telemetry.ledger.RunLedger` — cross-run SQLite ledger:
  one row per recorded run (identity columns plus a JSON metrics
  payload) and regression-flagged comparisons between rows.
* :class:`~repro.telemetry.selfprof.RunProfiler` — hierarchical
  wall-clock attribution of the reproduction itself (phase tree with
  per-callback-site engine frames and flamegraph/speedscope export, see
  ``docs/PERFORMANCE.md``).

Components report simulation facts to one ``obs`` attribute, a
:class:`~repro.telemetry.observers.RunObservers` bundle per traced run
that fans each fact out to the enabled pillars.  Completed batches are
the exception: each is one row of the run's
:class:`~repro.simulator.metrics.BatchLog`, which the pillars read per
tick, at finalize or at export.

Everything is **zero-overhead when disabled**: the shared
:data:`NULL_TRACER` singleton short-circuits on a single attribute check,
no sampler events are scheduled, every ``obs`` hook site is one
``is None`` test, and so is the engine hot loop.  A run with tracing disabled is bit-identical to one
without the telemetry layer at all.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "tracer": ("NULL_TRACER", "SpanRecord", "TraceEventRecord", "Tracer"),
    "metrics": ("Counter", "MetricsRegistry"),
    "costmeter": (
        "CostBreakdown", "CostBudgetMonitor", "CostMeter", "LeaseCost",
        "ModelSpecCost",
    ),
    "reqtrace": (
        "PHASES", "REQTRACE_SCHEMA", "BatchTrace", "RequestTraceData",
        "RequestTracer", "RequestView", "read_reqtrace",
    ),
    "observers": ("RunObservers",),
    "selfprof": (
        "RunProfiler", "diff_profiles", "load_profile", "render_profile_diff",
    ),
    "prometheus": ("to_prometheus_text", "write_prometheus"),
    "slo_monitor": ("SLOMonitor", "WindowStats"),
    "timeseries": ("StateSampler", "TimeSeriesData", "read_timeseries"),
    "dashboard": ("LiveDashboard",),
    "ledger": ("RunLedger", "RunRecord", "LedgerComparison"),
    "exporters": (
        "TraceData", "read_jsonl", "summary_counts", "to_chrome_trace",
        "to_jsonl_lines", "write_chrome_trace", "write_jsonl",
    ),
})
