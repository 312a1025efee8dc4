"""Trace exporters: JSONL, Chrome ``trace_event``, and read-back.

Two on-disk formats, one source of truth (the :class:`~repro.telemetry.
tracer.Tracer`):

* **JSONL** — one self-describing JSON object per line (``meta`` /
  ``span`` / ``event`` rows).  Lossless: :func:`read_jsonl` parses a
  file back into a :class:`TraceData` the analysis layer
  (``repro.analysis.trace_report``) consumes.  Files from older
  versions may also hold ``sample`` rows; they are skipped.
* **Chrome trace_event** — a single JSON object that loads directly in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Spans
  become complete (``"X"``) events, decision events instant (``"i"``)
  events, the time-series sampler's readings counter (``"C"``) events,
  and each track gets a named thread row via ``"M"`` metadata events.

Sim-seconds are exported as microseconds in the Chrome format (its
native unit).  Non-finite floats (an infeasible candidate's ``inf``
T_max) are mapped to ``None``/``null`` so both outputs stay strictly
JSON-parseable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union

from repro.telemetry.tracer import Tracer

__all__ = [
    "TraceData",
    "read_jsonl",
    "summary_counts",
    "to_chrome_trace",
    "to_jsonl_lines",
    "write_chrome_trace",
    "write_jsonl",
]


def _jsonable(v: Any) -> Any:
    """Coerce to strictly-JSON values: finite numbers, str, bool, None,
    and containers thereof.  Non-finite floats become None; unknown
    objects fall back to ``str``."""
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    # NumPy scalars expose item(); anything else degrades to str.
    item = getattr(v, "item", None)
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    return str(v)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def to_jsonl_lines(tracer: Tracer) -> Iterator[str]:
    """Yield the trace as JSON lines (meta first, then spans and
    events, each in emission order)."""
    yield json.dumps({"type": "meta", **_jsonable(tracer.meta)})
    for s in tracer.spans:
        yield json.dumps(
            {
                "type": "span",
                "name": s.name,
                "cat": s.cat,
                "track": s.track,
                "start": s.start,
                "end": s.end,
                "attrs": _jsonable(s.attrs),
            }
        )
    for e in tracer.events:
        yield json.dumps(
            {
                "type": "event",
                "name": e.name,
                "cat": e.cat,
                "track": e.track,
                "t": e.time,
                "attrs": _jsonable(e.attrs),
            }
        )


def write_jsonl(tracer: Tracer, path: str) -> int:
    """Write the JSONL export; returns the number of lines written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in to_jsonl_lines(tracer):
            fh.write(line + "\n")
            n += 1
    return n


@dataclass
class TraceData:
    """A parsed trace file (the read side of the JSONL round trip)."""

    meta: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)

    def spans_in(self, cat: str) -> list[dict[str, Any]]:
        return [s for s in self.spans if s.get("cat") == cat]

    def events_named(self, name: str) -> list[dict[str, Any]]:
        return [e for e in self.events if e.get("name") == name]


def read_jsonl(path: str) -> TraceData:
    """Parse a JSONL trace file back into structured records."""
    data = TraceData()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            kind = obj.pop("type", None)
            if kind == "meta":
                data.meta = obj
            elif kind == "span":
                data.spans.append(obj)
            elif kind == "event":
                data.events.append(obj)
            elif kind != "sample":  # older files carry registry samples
                raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
    return data


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
_US = 1e6  # sim-seconds -> microseconds


def to_chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """Build the Chrome ``trace_event`` JSON object for this trace.

    Track names map to named thread rows under one process; events are
    sorted by timestamp so viewers that require monotone input stay
    happy.
    """
    tracks = sorted(
        {s.track for s in tracer.spans} | {e.track for e in tracer.events}
    )
    tid_of = {track: i + 1 for i, track in enumerate(tracks)}
    out: list[dict[str, Any]] = []
    for s in tracer.spans:
        out.append(
            {
                "ph": "X",
                "name": s.name,
                "cat": s.cat,
                "pid": 0,
                "tid": tid_of[s.track],
                "ts": s.start * _US,
                "dur": s.duration * _US,
                "args": _jsonable(s.attrs),
            }
        )
    for e in tracer.events:
        out.append(
            {
                "ph": "i",
                "s": "t",
                "name": e.name,
                "cat": e.cat,
                "pid": 0,
                "tid": tid_of[e.track],
                "ts": e.time * _US,
                "args": _jsonable(e.attrs),
            }
        )
    sampler = tracer.timeseries
    if sampler is not None:
        times = (sampler.times() * _US).tolist()
        for name, col in sampler.columns().items():
            for ts, value in zip(times, col.tolist()):
                if math.isfinite(value):
                    out.append({
                        "ph": "C", "name": name, "cat": "timeseries",
                        "pid": 0, "ts": ts, "args": {"value": value},
                    })
    out.sort(key=lambda ev: (ev["ts"], ev.get("tid", 0)))
    metadata: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "args": {"name": "paldia-sim"},
        }
    ]
    for track, tid in tid_of.items():
        metadata.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
        )
    return {
        "traceEvents": metadata + out,
        "displayTimeUnit": "ms",
        "otherData": _jsonable(tracer.meta),
    }


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the Chrome-format trace; returns the number of trace events."""
    doc = to_chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])


# ----------------------------------------------------------------------
# Terminal summary
# ----------------------------------------------------------------------
def summary_counts(source: Union[Tracer, TraceData]) -> dict[str, Any]:
    """Headline counts for a tracer or a parsed trace file."""
    if isinstance(source, Tracer):
        spans = [(s.cat, s.attrs) for s in source.spans]
    else:
        spans = [(s.get("cat"), s.get("attrs", {})) for s in source.spans]
    request_spans = [attrs for cat, attrs in spans if cat == "request"]
    return {
        "spans": len(spans),
        "request_spans": len(request_spans),
        "requests": int(sum(a.get("n", 0) for a in request_spans)),
        "events": len(source.events),
    }
