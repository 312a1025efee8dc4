"""The tracer: spans, decision events, and the disabled-path contract.

Hook sites throughout the simulator and control plane hold a
:class:`Tracer` reference (defaulting to the shared :data:`NULL_TRACER`)
and guard every emission with ``if tracer.enabled:``.  The guard is the
whole disabled-path cost — no attribute dictionaries are built, no
strings formatted, no events scheduled — which is what lets the
acceptance contract hold: a run with tracing disabled is bit-identical
to a run of the untraced code.

Times are **simulation seconds** throughout; the exporters convert to
microseconds for the Chrome ``trace_event`` format.

Span model
----------
Each completed batch — read from the run's batch log
(:class:`~repro.simulator.metrics.BatchLog`) when the spans are read,
never reported per batch — becomes one ``request`` span covering
``[first_arrival, completed_at]`` whose attributes carry the full latency
breakdown (``batching_wait + cold_start_wait + queue_delay + exec_solo +
interference_extra + failure_wait`` — the same components
:class:`~repro.simulator.metrics.MetricsCollector` aggregates), plus three
child phase spans:

* ``batching`` — ``[first_arrival, dispatched_at]``: the gateway window.
* ``wait`` — ``[dispatched_at, started_at]``: container acquisition
  (cold-start / queue / interference waits, split in the attributes).
* ``execute`` — ``[started_at, completed_at]``: time on the device.

Decision events are point-in-time records (``hardware_selection.tick``,
``job_distribution.split``, ``autoscaler.*``, ``chaos.*``, ``node.*``,
``reconfig.*``) whose attributes are plain JSON-serialisable values so
the audit log survives export/import round trips.  Attributes are
read-only: the ``job_distribution.split`` events of one memoised
Equation-(1) decision share one payload dict, and the
``hardware_selection.tick`` events over one memoised candidate table
share one ``candidates`` list.  Every export copies them.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple, Optional

from repro.framework.request import PHASES
from repro.simulator.metrics import BatchLog, BatchReader
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["SpanRecord", "TraceEventRecord", "Tracer", "NULL_TRACER"]


class SpanRecord(NamedTuple):
    """A completed interval on some track of the run timeline (a tuple:
    records are immutable and cheap to build)."""

    name: str
    cat: str
    track: str
    start: float
    end: float
    attrs: dict[str, Any]

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceEventRecord(NamedTuple):
    """A point-in-time decision/audit event."""

    name: str
    cat: str
    track: str
    time: float
    attrs: dict[str, Any]


class Tracer:
    """Collects spans, events, and metrics for one run.

    Parameters
    ----------
    enabled:
        When ``False`` every emission method returns immediately and hook
        sites skip attribute construction entirely.
    metrics:
        The sim-time metrics registry; a fresh one is created by default.

    Examples
    --------
    >>> tr = Tracer()
    >>> tr.event("demo.tick", 1.0, cat="decision", value=3)
    >>> tr.events[0].attrs["value"]
    3
    """

    def __init__(
        self, enabled: bool = True, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.enabled = bool(enabled)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._spans: list[SpanRecord] = []
        #: Read the run's batch log: one reader for the request spans,
        #: one for the latency histogram.
        self.batches = BatchReader()
        self._latencies = BatchReader()
        self.events: list[TraceEventRecord] = []
        self.meta: dict[str, Any] = {}
        #: The run's :class:`~repro.telemetry.timeseries.StateSampler`,
        #: attached by the framework when time-series sampling is on
        #: (``None`` otherwise) so exporters and the Prometheus snapshot
        #: can reach the sampled columns.
        self.timeseries: Any = None
        #: Callbacks ``(now, row)`` forwarded to the sampler at
        #: construction — the CLI registers the live dashboard here
        #: before the run (and its sampler) exists.
        self.timeseries_observers: list[Any] = []

    @property
    def spans(self) -> list[SpanRecord]:
        """All recorded spans (materialising the request spans of every
        batch completed so far first)."""
        self.record_batch_span()
        return self._spans

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        cat: str = "span",
        track: str = "run",
        **attrs: Any,
    ) -> None:
        """Record a completed span (retroactive recording: the simulator
        knows both endpoints by the time anything interesting finished)."""
        if not self.enabled:
            return
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        self._spans.append(
            SpanRecord(name, cat, track, float(start), float(end), attrs)
        )

    def event(
        self,
        name: str,
        time: float,
        payload: Optional[dict[str, Any]] = None,
        /,
        *,
        cat: str = "event",
        track: str = "control-plane",
        **attrs: Any,
    ) -> None:
        """Record a point-in-time event (decisions, failures, leases).

        Its attributes are the keyword arguments, or ``payload`` itself
        (not a copy): the events of one memoised decision share one
        payload, so recorded attributes are read-only.
        """
        if not self.enabled:
            return
        if payload is not None:
            if attrs:
                raise TypeError("pass event attributes as a payload or as "
                                "keywords, not both")
            attrs = payload
        self.events.append(
            TraceEventRecord(name, cat, track, float(time), attrs)
        )

    # ------------------------------------------------------------------
    # High-level helpers
    # ------------------------------------------------------------------
    def attach(self, log: BatchLog) -> None:
        """Observe the batches the run appends to ``log``: their request
        spans (:meth:`record_batch_span`) and latency histogram
        (:meth:`record_latencies`)."""
        self.batches.attach(log)
        self._latencies.attach(log)

    def record_latencies(self) -> None:
        """Fold the first-arrival latency of every batch the attached log
        completed since the last call into the ``request.latency_seconds``
        histogram.

        Called by the Prometheus export (the histogram's one reader)
        before it reads the registry, as :attr:`spans` calls
        :meth:`record_batch_span`."""
        if self.enabled and self._latencies.pending():
            self.metrics.histogram("request.latency_seconds").observe_many(
                self._latencies.read(copy=False).first_latencies()
            )

    def record_batch_span(self) -> None:
        """Materialise the request span (plus phase children) of every
        batch the attached log completed since the last read.

        Called on access to :attr:`spans`, so the four span records per
        batch are built at export time, never inside the simulation loop.
        Their attributes carry the exact breakdown components
        :class:`~repro.simulator.metrics.MetricsCollector` aggregates, so a
        trace file can reproduce the collector's numbers independently.
        """
        if not (self.enabled and self.batches.pending()):
            return
        rows = self.batches.read(copy=False)
        col = rows.rows
        append = self._spans.append
        for (batch_id, model, n, mode, hardware, first, done, started,
             dispatched, retries, *phases) in zip(
            col["batch_id"].tolist(), rows.labels("model"),
            col["size"].tolist(), rows.labels("mode"),
            rows.labels("hardware"), rows.arrivals[col["first"]].tolist(),
            col["completed_at"].tolist(), col["started_at"].tolist(),
            col["dispatched_at"].tolist(), col["retries"].tolist(),
            *(col[name].tolist() for name in PHASES),
        ):
            track = hardware or "?"
            if math.isnan(started):
                started = done
            dispatched = min(dispatched, done)
            wait, cold, queue, solo, extra, failure = phases
            append(SpanRecord(
                name=f"batch#{batch_id}",
                cat="request",
                track=track,
                start=first,
                end=done,
                attrs={
                    "batch_id": batch_id,
                    "model": model,
                    "n": n,
                    "mode": mode,
                    "hardware": track,
                    "dispatched_at": dispatched,
                    "started_at": started,
                    "batching_wait": wait,
                    "cold_start_wait": cold,
                    "queue_delay": queue,
                    "exec_solo": solo,
                    "interference_extra": extra,
                    "failure_wait": failure,
                    "retries": retries,
                },
            ))
            # Phase children: clamp to the parent interval so float slop
            # in the accounting can never produce a negative-duration phase.
            started = min(max(started, first), done)
            dispatched = min(max(dispatched, first), started)
            append(SpanRecord(
                name="batching", cat="phase", track=track,
                start=first, end=dispatched,
                attrs={"batch_id": batch_id},
            ))
            append(SpanRecord(
                name="wait", cat="phase", track=track,
                start=dispatched, end=started,
                attrs={
                    "batch_id": batch_id,
                    "cold_start_wait": cold,
                    "queue_delay": queue,
                },
            ))
            append(SpanRecord(
                name="execute", cat="phase", track=track,
                start=started, end=done,
                attrs={
                    "batch_id": batch_id,
                    "exec_solo": solo,
                    "interference_extra": extra,
                },
            ))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def request_spans(self) -> list[SpanRecord]:
        """Just the per-batch request spans (phase children excluded)."""
        return [s for s in self.spans if s.cat == "request"]

    def events_named(self, name: str) -> list[TraceEventRecord]:
        """Events with exactly this name, in emission order."""
        return [e for e in self.events if e.name == name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (
            f"Tracer({state}, spans={len(self.spans)}, "
            f"events={len(self.events)})"
        )


#: Shared disabled tracer: the default everywhere a tracer is optional.
#: One instance so the ``tracer.enabled`` guard stays monomorphic on the
#: hot paths.
NULL_TRACER = Tracer(enabled=False)
