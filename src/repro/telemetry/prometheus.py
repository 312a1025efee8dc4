"""Prometheus text-format export of the metrics registry, the time-series
sampler's last readings and the SLO windows.

A traced run's instruments map onto the Prometheus exposition format
(https://prometheus.io/docs/instrumenting/exposition_formats/) so the
snapshot can be diffed, scraped by tooling, or pushed to a gateway:

* counters  -> ``# TYPE <name>_total counter`` with the final value,
* histograms-> cumulative ``_bucket{le="..."}`` series plus ``_sum`` and
  ``_count`` (always bucket-resolution: the exposition format is bucketed
  by definition, independent of the registry's exact-quantile tier),
* SLO monitor windows -> ``repro_slo_window_*`` gauges labelled by
  ``{scope, key}`` plus a 0/1 ``repro_slo_alert_firing`` flag,
* time-series sampler columns -> ``repro_ts_*`` gauges holding each
  series' most recent reading (NaN series are skipped); they are the
  snapshot's only run-state gauges,
* cost meter -> ``repro_cost_total_dollars`` plus per-bucket
  (``repro_cost_bucket_dollars{bucket=...}``) and per-hardware-spec
  (``repro_cost_spec_dollars{spec=...}``) gauges.

Metric names are sanitised (``.`` and other non-identifier characters
become ``_``) and prefixed with ``repro_``.  All values are rendered with
``repr``-exact floats; ``inf`` follows the Prometheus ``+Inf`` spelling
in bucket labels.  This is a *snapshot* exporter — sim-time has no
wall-clock, so no timestamps are written.
"""

from __future__ import annotations

import math
import re
from typing import Optional

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slo_monitor import SLOMonitor
from repro.telemetry.tracer import Tracer

__all__ = ["to_prometheus_text", "write_prometheus"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(raw: str) -> str:
    """``request.latency_seconds`` -> ``repro_request_latency_seconds``."""
    name = _NAME_RE.sub("_", raw)
    if not name or not (name[0].isalpha() or name[0] == "_"):
        name = "_" + name
    return f"repro_{name}"


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - no NaN sources today
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def to_prometheus_text(
    source: Tracer | MetricsRegistry,
    monitor: Optional[SLOMonitor] = None,
    now: Optional[float] = None,
    costmeter=None,
) -> str:
    """Render the metrics snapshot in Prometheus exposition format.

    Parameters
    ----------
    source:
        A tracer (its registry is used) or a registry directly.
    monitor:
        Optional live SLO monitor; its windows are evaluated at ``now``
        and exported as labelled gauges.
    now:
        Sim-time instant for the monitor evaluation (required when
        ``monitor`` is given).
    costmeter:
        Optional :class:`~repro.telemetry.costmeter.CostMeter`; its
        summary at ``now`` is exported as ``repro_cost_*`` gauges.
    """
    if isinstance(source, Tracer):
        source.record_latencies()
        reg = source.metrics
    else:
        reg = source
    lines: list[str] = []

    for raw, counter in sorted(reg._counters.items()):
        name = _metric_name(raw) + "_total"
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_fmt(counter.value)}")

    # Time-series columns (when a StateSampler is attached to the tracer):
    # each sampled series' most recent reading becomes a gauge under the
    # ``repro_ts_`` prefix.  NaN (probe never fired / spec never leased)
    # series are skipped — Prometheus has no NaN-safe gauge semantics.
    sampler = getattr(source, "timeseries", None)
    if sampler is not None:
        for raw in sorted(sampler.probe_names()):
            value = sampler.last(raw)
            if math.isnan(value):
                continue
            name = "repro_ts_" + _NAME_RE.sub("_", raw)
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_fmt(value)}")

    for raw, hist in sorted(reg._histograms.items()):
        name = _metric_name(raw)
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            lines.append(
                f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
            )
        lines.append(f'{name}_bucket{{le="+Inf"}} {hist.n}')
        lines.append(f"{name}_sum {_fmt(hist.sum)}")
        lines.append(f"{name}_count {hist.n}")

    if monitor is not None:
        if now is None:
            raise ValueError("now is required to evaluate monitor windows")
        series = {
            "repro_slo_window_attainment": (
                "gauge", lambda s: s.attainment),
            "repro_slo_window_p99_seconds": (
                "gauge", lambda s: s.p99_seconds),
            "repro_slo_window_burn_rate": (
                "gauge", lambda s: s.burn_rate),
            "repro_slo_window_requests": (
                "gauge", lambda s: float(s.n_requests)),
            "repro_slo_window_violations": (
                "gauge", lambda s: float(s.n_violations)),
            "repro_slo_alert_firing": (
                "gauge", lambda s: 1.0 if s.firing else 0.0),
        }
        stats = monitor.window_stats(now)
        for name, (kind, value_of) in series.items():
            lines.append(f"# TYPE {name} {kind}")
            for s in stats:
                labels = (
                    f'scope="{_escape_label(s.scope)}",'
                    f'key="{_escape_label(s.key)}"'
                )
                lines.append(f"{name}{{{labels}}} {_fmt(value_of(s))}")

    if costmeter is not None:
        if now is None:
            raise ValueError("now is required to evaluate the cost meter")
        breakdown = costmeter.summarize(now)
        lines.append("# TYPE repro_cost_total_dollars gauge")
        lines.append(
            f"repro_cost_total_dollars {_fmt(breakdown.total_dollars)}"
        )
        lines.append("# TYPE repro_cost_bucket_dollars gauge")
        for bucket, dollars in sorted(breakdown.bucket_dollars.items()):
            lines.append(
                f'repro_cost_bucket_dollars{{bucket="{_escape_label(bucket)}"}}'
                f" {_fmt(dollars)}"
            )
        lines.append("# TYPE repro_cost_spec_dollars gauge")
        for spec, dollars in sorted(breakdown.spec_dollars.items()):
            lines.append(
                f'repro_cost_spec_dollars{{spec="{_escape_label(spec)}"}}'
                f" {_fmt(dollars)}"
            )

    return "\n".join(lines) + "\n"


def write_prometheus(
    source: Tracer | MetricsRegistry,
    path: str,
    monitor: Optional[SLOMonitor] = None,
    now: Optional[float] = None,
    costmeter=None,
) -> int:
    """Write the snapshot to ``path``; returns the number of sample lines
    (non-comment lines) written."""
    text = to_prometheus_text(
        source, monitor=monitor, now=now, costmeter=costmeter
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return sum(
        1 for line in text.splitlines() if line and not line.startswith("#")
    )
