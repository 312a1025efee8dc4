"""Per-request causal tracing: the request-scoped telemetry pillar.

Every other pillar (tracer spans, attribution, time series, selfprof,
cost meter) is run- or phase-scoped; this one answers "why was *this*
request slow?".  A :class:`RequestTracer` records, per request id, a
typed phase timeline — arrival -> window wait -> batch formation
(batch id, peers, deadline-setting member) -> queue -> cold-start wait
-> dispatch (hardware, co-run slot) -> interference slowdown -> retry
attempts -> completion — reported by the framework, the simulator
devices, the cluster, and the resilience layer through the run's
observer bundle (:mod:`repro.telemetry.observers`).

Columnar by construction
------------------------
The simulator never materialises per-request Python objects on the hot
path (:class:`~repro.framework.request.Batch` carries a sorted arrivals
array), and neither does the tracer: it records one :class:`BatchTrace`
per *batch* at completion time and derives per-request waterfall rows
lazily at read time.  Request ``i`` of a batch shares every phase with
its peers except the batching wait, which shrinks by how much later it
arrived::

    batching_wait_i = batch.batching_wait - (arrivals[i] - arrivals[0])

so each request's six phases telescope exactly to its own end-to-end
latency (``completed_at - arrivals[i]``) — the conservation identity
gated to 1e-9 in ``benchmarks/test_bench_reqtrace.py``.

Request ids
-----------
Request ids are assigned in batch-completion order across *all*
completed batches, sampled or not, so rid ``r`` always indexes
``MetricsCollector.latencies()[r]`` exactly and ids are stable across
sampling rates.

Sampling
--------
``sample`` keeps a deterministic pseudo-random fraction of batches
(splitmix64 over ``(seed, batch_id)`` — stable across processes, unlike
``hash()``), and a tail reservoir of the ``tail_k`` worst batches by
first-arrival latency is always retained on top.  Because a batch's
first arrival has the largest latency in the batch, the ``tail_k``
worst *batches* contain at least the ``tail_k`` worst *requests*, so
worst-K forensics are exact at any sampling rate for ``K <= tail_k``.

Disabled path
-------------
Untraced runs (or ``RunConfig(reqtrace=False)``, the default) construct
no ``RequestTracer`` and make zero calls into this module, gated
deterministically (``sys.setprofile`` call counting) like the meter's.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.framework.request import Batch

__all__ = [
    "PHASES",
    "REQTRACE_SCHEMA",
    "BatchTrace",
    "RequestTracer",
    "RequestTraceData",
    "RequestView",
    "read_reqtrace",
]

#: The six causal phases of a request's life, in timeline order.  This
#: is the single source of truth for phase names: the batch breakdown
#: (:class:`~repro.framework.request.BatchBreakdown`), the trace-report
#: latency table, and the attribution causes all cite these names.
PHASES: tuple[str, ...] = (
    "batching_wait",
    "cold_start_wait",
    "queue_delay",
    "exec_solo",
    "interference_extra",
    "failure_wait",
)

REQTRACE_SCHEMA = "repro.reqtrace/1"

_MASK64 = (1 << 64) - 1


def _mix64(seed: int, x: int) -> int:
    """splitmix64 finalizer over ``(seed, x)``.

    Explicit integer mixing rather than ``hash()`` so the sampled set is
    a pure function of the seed — identical across processes and Python
    builds (``PYTHONHASHSEED`` does not reach it).
    """
    z = (x + 0x9E3779B97F4A7C15 * (seed + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def sampled_batch(seed: int, batch_id: int, sample: float) -> bool:
    """Whether ``batch_id`` falls in the deterministic sampled set."""
    if sample >= 1.0:
        return True
    if sample <= 0.0:
        return False
    return (_mix64(seed, batch_id) >> 32) < int(sample * 2.0**32)


@dataclass(slots=True)
class BatchTrace:
    """One completed batch's causal record (shared by its requests).

    ``phases`` holds the six breakdown components in :data:`PHASES`
    order as accounted for the batch's *first* arrival; ``first_rid``
    is the id of that first request — the deadline-setting member,
    since the SLO clock of the whole batch starts at its arrival.
    """

    batch_id: int
    first_rid: int
    model: str
    mode: str
    hardware: Optional[str]
    node_id: Optional[int]
    arrivals: np.ndarray
    dispatched_at: float
    started_at: Optional[float]
    completed_at: float
    retries: int
    phases: tuple[float, ...]
    co_run: int
    total_fbr: float
    sampled: bool

    @property
    def size(self) -> int:
        return int(self.arrivals.size)

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "reqtrace_batch",
            "batch_id": self.batch_id,
            "first_rid": self.first_rid,
            "model": self.model,
            "mode": self.mode,
            "hardware": self.hardware,
            "node_id": self.node_id,
            "arrivals": [float(a) for a in self.arrivals],
            "dispatched_at": self.dispatched_at,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "retries": self.retries,
            "phases": dict(zip(PHASES, self.phases)),
            "co_run": self.co_run,
            "total_fbr": self.total_fbr,
            "sampled": self.sampled,
        }


class RequestView:
    """One request's derived waterfall row (lazy, read-time only)."""

    __slots__ = ("batch", "index", "_slo_seconds")

    def __init__(self, batch: BatchTrace, index: int,
                 slo_seconds: Optional[float] = None) -> None:
        self.batch = batch
        self.index = index
        self._slo_seconds = slo_seconds

    @property
    def rid(self) -> int:
        return self.batch.first_rid + self.index

    @property
    def arrival(self) -> float:
        return float(self.batch.arrivals[self.index])

    @property
    def latency(self) -> float:
        return self.batch.completed_at - self.arrival

    @property
    def peers(self) -> int:
        return self.batch.size

    @property
    def deadline_rid(self) -> int:
        """Request id of the batch member whose arrival set the batch's
        deadline (the earliest arrival)."""
        return self.batch.first_rid

    @property
    def slo_seconds(self) -> Optional[float]:
        return self._slo_seconds

    @property
    def violated(self) -> Optional[bool]:
        """SLO verdict, or ``None`` when no SLO is known for the model."""
        if self._slo_seconds is None:
            return None
        return self.latency > self._slo_seconds

    def phases(self) -> dict[str, float]:
        """The six causal phases, conserving ``latency`` exactly.

        The batching wait is personal (later arrivals waited less for
        the same dispatch instant); the other five phases are shared
        batch-wide, so the per-request sum telescopes to this request's
        own end-to-end latency.
        """
        p = dict(zip(PHASES, self.batch.phases))
        p["batching_wait"] -= self.arrival - float(self.batch.arrivals[0])
        return p

    def conservation_residual(self) -> float:
        """``|sum(phases) - latency|`` — 0 up to float roundoff."""
        return abs(math.fsum(self.phases().values()) - self.latency)


class RequestTracer:
    """Per-request causal trace recorder (one per run / shared cluster).

    Constructed only when the run is traced *and*
    ``RunConfig.reqtrace`` is set — the disabled path never enters this
    module.  Its hooks are called from the run's
    :class:`~repro.telemetry.observers.RunObservers` bundle; none of
    them touch the simulation state, so a traced run stays bit-identical
    to an untraced one.
    """

    #: Soft cap on the auxiliary event list (node churn, retries,
    #: breaker flips).  Batches are bounded by sampling; events are
    #: bounded here — drops are counted, never silent.
    DEFAULT_EVENT_CAP = 20000

    def __init__(self, *, sample: float = 1.0, tail_k: int = 64,
                 seed: int = 0, event_cap: int = DEFAULT_EVENT_CAP) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError("reqtrace sample must be in [0, 1]")
        if tail_k < 0:
            raise ValueError("reqtrace tail_k must be >= 0")
        self.sample = float(sample)
        self.tail_k = int(tail_k)
        self.seed = int(seed)
        self.event_cap = int(event_cap)
        #: Next request id == number of requests completed so far; rid
        #: therefore indexes ``MetricsCollector.latencies()`` exactly.
        self._next_rid = 0
        self.n_batches_seen = 0
        self.n_requests_seen = 0
        self.events_dropped = 0
        self._records: dict[int, BatchTrace] = {}
        #: Min-heap of (first-arrival latency, batch_id): the tail
        #: reservoir of the worst ``tail_k`` batches seen so far.
        self._tail: list[tuple[float, int]] = []
        #: In-flight execution context from the device, keyed by batch
        #: id; popped at completion, so memory stays bounded by the
        #: number of batches in flight.  Retries overwrite (last
        #: dispatch attempt wins — that is the one that completed).
        self._exec: dict[int, tuple[float, str, int, float]] = {}
        self._events: list[dict[str, Any]] = []
        self._models: dict[str, float] = {}
        self._horizon = 0.0

    # ------------------------------------------------------------------
    # Setup-side hooks
    # ------------------------------------------------------------------
    def register_model(self, name: str, slo_seconds: float) -> None:
        """Record a served model's SLO (per-model for multi-lane runs)."""
        self._models[name] = float(slo_seconds)

    # ------------------------------------------------------------------
    # Hot-path hooks (one `is None` branch at each call site)
    # ------------------------------------------------------------------
    def on_execute_start(self, batch_id: int, now: float, hardware: str,
                         co_run: int, total_fbr: float) -> None:
        """A device started executing the batch (from ``GPUDevice._start``)."""
        self._exec[batch_id] = (float(now), hardware, int(co_run),
                                float(total_fbr))

    def on_batch_complete(self, batch: "Batch", node_id: Optional[int]) -> None:
        """A batch completed: assign rids and retain per sampling policy.

        Called for *every* completed batch so the rid counter stays in
        lockstep with the metrics collector regardless of sampling.
        """
        first_rid = self._next_rid
        size = int(batch.arrivals.size)
        self._next_rid += size
        self.n_batches_seen += 1
        self.n_requests_seen += size
        bid = batch.batch_id
        exec_info = self._exec.pop(bid, None)
        keep = sampled_batch(self.seed, bid, self.sample)
        lat = float(batch.completed_at) - float(batch.arrivals[0])
        keep_tail = False
        if self.tail_k > 0:
            entry = (lat, bid)
            if len(self._tail) < self.tail_k:
                heapq.heappush(self._tail, entry)
                keep_tail = True
            else:
                evicted = heapq.heappushpop(self._tail, entry)
                if evicted is not entry:
                    keep_tail = True
                    old = self._records.get(evicted[1])
                    if old is not None and not old.sampled:
                        del self._records[evicted[1]]
        if not (keep or keep_tail):
            return
        bd = batch.breakdown
        self._records[bid] = BatchTrace(
            batch_id=bid,
            first_rid=first_rid,
            model=batch.model.name,
            mode=batch.mode,
            hardware=batch.hardware_name,
            node_id=node_id,
            arrivals=np.array(batch.arrivals, dtype=np.float64, copy=True),
            dispatched_at=float(batch.dispatched_at),
            started_at=exec_info[0] if exec_info is not None
            else batch.started_at,
            completed_at=float(batch.completed_at),
            retries=int(batch.retries),
            phases=(
                bd.batching_wait, bd.cold_start_wait, bd.queue_delay,
                bd.exec_solo, bd.interference_extra, bd.failure_wait,
            ),
            co_run=exec_info[2] if exec_info is not None else 1,
            total_fbr=exec_info[3] if exec_info is not None else 0.0,
            sampled=keep,
        )

    def on_run_end(self, now: float) -> None:
        """Record the run horizon (idempotent; max wins across lanes)."""
        if now > self._horizon:
            self._horizon = float(now)

    def event(self, kind: str, now: float, **attrs: Any) -> None:
        """Record one auxiliary event (node churn, retries, sheds, drops,
        breaker flips); ``attrs`` must be JSON-serialisable."""
        if len(self._events) >= self.event_cap:
            self.events_dropped += 1
            return
        self._events.append({"kind": kind, "t": float(now), **attrs})

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def data(self) -> "RequestTraceData":
        """Freeze the recorded state into a :class:`RequestTraceData`."""
        records = sorted(self._records.values(), key=lambda r: r.first_rid)
        meta = {
            "schema": REQTRACE_SCHEMA,
            "sample": self.sample,
            "tail_k": self.tail_k,
            "seed": self.seed,
            "horizon": self._horizon,
            "n_batches_seen": self.n_batches_seen,
            "n_requests_seen": self.n_requests_seen,
            "n_batches_traced": len(records),
            "events_dropped": self.events_dropped,
            "models": dict(self._models),
        }
        return RequestTraceData(meta=meta, records=records,
                                events=list(self._events))


class RequestTraceData:
    """A frozen request trace: meta + batch records + auxiliary events.

    Produced live by :meth:`RequestTracer.data` or loaded from disk by
    :func:`read_reqtrace`; both shapes are identical (round-trip safe).
    """

    def __init__(self, meta: dict[str, Any], records: list[BatchTrace],
                 events: list[dict[str, Any]]) -> None:
        self.meta = meta
        self.records = records
        self.events = events

    @property
    def n_requests_traced(self) -> int:
        return sum(r.size for r in self.records)

    def _slo_of(self, model: str) -> Optional[float]:
        return self.meta.get("models", {}).get(model)

    def iter_requests(self) -> Iterator[RequestView]:
        """Every traced request, in rid order."""
        for rec in self.records:
            slo = self._slo_of(rec.model)
            for i in range(rec.size):
                yield RequestView(rec, i, slo)

    def request(self, rid: int) -> RequestView:
        """The traced request with id ``rid``.

        Raises
        ------
        KeyError
            If ``rid`` was not retained (sampled out, or out of range).
        """
        lo, hi = 0, len(self.records)
        while lo < hi:  # rightmost record with first_rid <= rid
            mid = (lo + hi) // 2
            if self.records[mid].first_rid <= rid:
                lo = mid + 1
            else:
                hi = mid
        if lo:
            rec = self.records[lo - 1]
            if rid < rec.first_rid + rec.size:
                return RequestView(rec, rid - rec.first_rid,
                                   self._slo_of(rec.model))
        raise KeyError(
            f"request {rid} is not in the trace (sampled out or out of "
            f"range; {self.n_requests_traced} of "
            f"{self.meta.get('n_requests_seen', 0)} requests retained)"
        )

    def worst(self, k: int) -> list[RequestView]:
        """The ``k`` worst traced requests by latency (ties by rid)."""
        views = list(self.iter_requests())
        views.sort(key=lambda v: (-v.latency, v.rid))
        return views[: max(0, int(k))]

    def phase_arrays(self) -> dict[str, np.ndarray]:
        """Per-phase columns across every traced request (for P50/P99)."""
        cols: dict[str, list[float]] = {name: [] for name in PHASES}
        lat: list[float] = []
        for v in self.iter_requests():
            for name, val in v.phases().items():
                cols[name].append(val)
            lat.append(v.latency)
        out = {name: np.asarray(vals, dtype=np.float64)
               for name, vals in cols.items()}
        out["latency"] = np.asarray(lat, dtype=np.float64)
        return out

    def events_between(self, t0: float, t1: float) -> list[dict[str, Any]]:
        """Auxiliary events (nodes, retries, breakers) in ``[t0, t1]``."""
        return [e for e in self.events if t0 <= e["t"] <= t1]

    # ------------------------------------------------------------------
    # Persistence (schema repro.reqtrace/1, JSONL like the other pillars)
    # ------------------------------------------------------------------
    def save_jsonl(self, path: str) -> int:
        """Write the trace as ``repro.reqtrace/1`` JSONL; returns the
        number of lines written."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "reqtrace_meta", **self.meta}))
            fh.write("\n")
            n += 1
            for rec in self.records:
                fh.write(json.dumps(rec.as_dict()))
                fh.write("\n")
                n += 1
            for ev in self.events:
                fh.write(json.dumps({"type": "reqtrace_event", **ev}))
                fh.write("\n")
                n += 1
        return n


def read_reqtrace(path: str) -> RequestTraceData:
    """Load a ``repro.reqtrace/1`` JSONL file written by
    :meth:`RequestTraceData.save_jsonl`.

    Raises
    ------
    ValueError
        On schema mismatch or malformed lines (message carries
        ``path:lineno`` like the other telemetry loaders).
    """
    meta: Optional[dict[str, Any]] = None
    records: list[BatchTrace] = []
    events: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            kind = obj.pop("type", None)
            if kind == "reqtrace_meta":
                if obj.get("schema") != REQTRACE_SCHEMA:
                    raise ValueError(
                        f"{path}:{lineno}: schema "
                        f"{obj.get('schema')!r} is not {REQTRACE_SCHEMA!r}"
                    )
                meta = obj
            elif kind == "reqtrace_batch":
                phases = obj.pop("phases")
                try:
                    records.append(BatchTrace(
                        arrivals=np.asarray(obj.pop("arrivals"),
                                            dtype=np.float64),
                        phases=tuple(float(phases[name]) for name in PHASES),
                        **obj,
                    ))
                except (KeyError, TypeError) as exc:
                    raise ValueError(
                        f"{path}:{lineno}: malformed reqtrace_batch: {exc}"
                    ) from exc
            elif kind == "reqtrace_event":
                events.append(obj)
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown record type {kind!r}"
                )
    if meta is None:
        raise ValueError(f"{path}: missing reqtrace_meta header line")
    records.sort(key=lambda r: r.first_rid)
    return RequestTraceData(meta=meta, records=records, events=events)
