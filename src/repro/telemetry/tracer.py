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
A request batch becomes one ``request`` span covering
``[first_arrival, completed_at]`` whose attributes carry the full latency
breakdown (``batching_wait + cold_start_wait + queue_delay + exec_solo +
interference_extra`` — the same components :class:`~repro.simulator.metrics.
MetricsCollector` aggregates), plus three child phase spans:

* ``batching`` — ``[first_arrival, dispatched_at]``: the gateway window.
* ``wait`` — ``[dispatched_at, started_at]``: container acquisition
  (cold-start / queue / interference waits, split in the attributes).
* ``execute`` — ``[started_at, completed_at]``: time on the device.

Decision events are point-in-time records (``hardware_selection.tick``,
``job_distribution.split``, ``autoscaler.*``, ``chaos.*``, ``node.*``,
``reconfig.*``) whose attributes are plain JSON-serialisable values so
the audit log survives export/import round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.framework.request import Batch

__all__ = ["SpanRecord", "TraceEventRecord", "Tracer", "NULL_TRACER"]


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """A completed interval on some track of the run timeline."""

    name: str
    cat: str
    track: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class TraceEventRecord:
    """A point-in-time decision/audit event."""

    name: str
    cat: str
    track: str
    time: float
    attrs: dict[str, Any] = field(default_factory=dict)


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
        self._pending_batches: list["Batch"] = []
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
        """All recorded spans (materialising any queued batches first)."""
        if self._pending_batches:
            self._flush_batches()
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
            SpanRecord(
                name=name, cat=cat, track=track,
                start=float(start), end=float(end), attrs=attrs,
            )
        )

    def event(
        self,
        name: str,
        time: float,
        *,
        cat: str = "event",
        track: str = "control-plane",
        **attrs: Any,
    ) -> None:
        """Record a point-in-time event (decisions, failures, leases)."""
        if not self.enabled:
            return
        self.events.append(
            TraceEventRecord(
                name=name, cat=cat, track=track, time=float(time), attrs=attrs
            )
        )

    # ------------------------------------------------------------------
    # High-level helpers
    # ------------------------------------------------------------------
    def record_batch_span(self, batch: "Batch") -> None:
        """Queue the request span (plus phase children) for a completed batch.

        The attributes carry the exact breakdown components
        :class:`~repro.simulator.metrics.MetricsCollector` aggregates, so a
        trace file can reproduce the collector's numbers independently.

        This is the highest-frequency hook in a traced run (once per
        completed batch, inside the simulation loop), so it only enqueues
        the batch here; the four span records per batch materialise
        lazily on first access to :attr:`spans` — at export time, off the
        hot path.  A batch is immutable once completed (the same contract
        :class:`MetricsCollector` snapshots rely on).
        """
        if not self.enabled:
            return
        if batch.completed_at is None:
            raise ValueError(f"batch {batch.batch_id} has not completed")
        self._pending_batches.append(batch)

    def _flush_batches(self) -> None:
        pending, self._pending_batches = self._pending_batches, []
        for batch in pending:
            self._materialise_batch(batch)

    def _materialise_batch(self, batch: "Batch") -> None:
        bd = batch.breakdown
        track = batch.hardware_name or "?"
        first = batch.first_arrival
        done = float(batch.completed_at)
        started = batch.started_at if batch.started_at is not None else done
        dispatched = min(batch.dispatched_at, done)
        append = self._spans.append
        append(SpanRecord(
            name=f"batch#{batch.batch_id}",
            cat="request",
            track=track,
            start=first,
            end=done,
            attrs={
                "batch_id": batch.batch_id,
                "model": batch.model.name,
                "n": batch.size,
                "mode": batch.mode,
                "hardware": track,
                "dispatched_at": dispatched,
                "started_at": started,
                "batching_wait": bd.batching_wait,
                "cold_start_wait": bd.cold_start_wait,
                "queue_delay": bd.queue_delay,
                "exec_solo": bd.exec_solo,
                "interference_extra": bd.interference_extra,
                "failure_wait": bd.failure_wait,
                "retries": batch.retries,
            },
        ))
        # Phase children: clamp to the parent interval so float slop in the
        # accounting can never produce a negative-duration phase.
        started = min(max(started, first), done)
        dispatched = min(max(dispatched, first), started)
        append(SpanRecord(
            name="batching", cat="phase", track=track,
            start=first, end=dispatched,
            attrs={"batch_id": batch.batch_id},
        ))
        append(SpanRecord(
            name="wait", cat="phase", track=track,
            start=dispatched, end=started,
            attrs={
                "batch_id": batch.batch_id,
                "cold_start_wait": bd.cold_start_wait,
                "queue_delay": bd.queue_delay,
            },
        ))
        append(SpanRecord(
            name="execute", cat="phase", track=track,
            start=started, end=done,
            attrs={
                "batch_id": batch.batch_id,
                "exec_solo": bd.exec_solo,
                "interference_extra": bd.interference_extra,
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
