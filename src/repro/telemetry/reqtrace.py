"""Per-request causal tracing: the request-scoped telemetry pillar.

Every other pillar (tracer spans, attribution, time series, selfprof,
cost meter) is run- or phase-scoped; this one answers "why was *this*
request slow?".  A :class:`RequestTracer` records, per request id, a
typed phase timeline — arrival -> window wait -> batch formation
(batch id, peers, deadline-setting member) -> queue -> cold-start wait
-> dispatch (hardware, co-run slot) -> interference slowdown -> retry
attempts -> completion.  Completed batches come from the run's batch
log (:class:`~repro.simulator.metrics.BatchLog`), read once when the
trace is frozen; execution starts, node churn, retries and breaker
flips are reported by the simulator devices, the cluster, and the
resilience layer through the run's observer bundle
(:mod:`repro.telemetry.observers`).

Columnar by construction
------------------------
The simulator never materialises per-request Python objects on the hot
path (:class:`~repro.framework.request.Batch` carries a sorted arrivals
array), and neither does the tracer: it builds one :class:`BatchTrace`
per retained *batch* from the batch log and derives per-request
waterfall rows lazily at read time.  Request ``i`` of a batch shares every phase with
its peers except the batching wait, which shrinks by how much later it
arrived::

    batching_wait_i = batch.batching_wait - (arrivals[i] - arrivals[0])

so each request's six phases telescope exactly to its own end-to-end
latency (``completed_at - arrivals[i]``) — the conservation identity
gated to 1e-9 in ``benchmarks/test_bench_reqtrace.py``.

Request ids
-----------
Request ids are assigned in batch-completion order across *all* of the
run's completed batches, sampled or not, so rid ``r`` always indexes
the run's own ``MetricsCollector.latencies()[r]`` exactly and ids are
stable across sampling rates.

Sampling
--------
``sample`` keeps a deterministic pseudo-random fraction of batches
(splitmix64 over ``(seed, batch_id)`` — stable across processes, unlike
``hash()``), and a tail reservoir of the ``tail_k`` worst batches by
(first-arrival latency, batch id) is always retained on top; both are
selections over the batch log.  Because a batch's
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

import json
import math
from array import array
from dataclasses import dataclass
from typing import Any, Iterator, Optional

import numpy as np

from repro.framework.request import PHASES
from repro.simulator.metrics import BatchLog, BatchReader

__all__ = [
    "PHASES",
    "REQTRACE_SCHEMA",
    "BatchTrace",
    "RequestTracer",
    "RequestTraceData",
    "RequestView",
    "read_reqtrace",
]

REQTRACE_SCHEMA = "repro.reqtrace/1"

#: Batches converted to Python records per step when the log is read.
_CHUNK = 4096

_MASK64 = (1 << 64) - 1


def _mix64(seed: int, x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over ``(seed, x)`` for each id in ``x``.

    Explicit integer mixing rather than ``hash()`` so the sampled set is
    a pure function of the seed — identical across processes and Python
    builds (``PYTHONHASHSEED`` does not reach it).  ``uint64`` array
    arithmetic wraps modulo 2**64, like the masked integer recipe.
    """
    z = x.astype(np.uint64) + np.uint64(
        (0x9E3779B97F4A7C15 * (seed + 1)) & _MASK64
    )
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def sampled_batches(seed: int, batch_ids: np.ndarray,
                    sample: float) -> np.ndarray:
    """Which of ``batch_ids`` fall in the deterministic sampled set."""
    if sample >= 1.0:
        return np.ones(len(batch_ids), dtype=bool)
    if sample <= 0.0:
        return np.zeros(len(batch_ids), dtype=bool)
    return (_mix64(seed, batch_ids) >> np.uint64(32)) < int(sample * 2.0**32)


def sampled_batch(seed: int, batch_id: int, sample: float) -> bool:
    """Whether ``batch_id`` falls in the deterministic sampled set."""
    return bool(sampled_batches(seed, np.array([batch_id]), sample)[0])


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

    @property
    def dominant_phase(self) -> str:
        """The phase holding the largest share of the latency."""
        phases = self.phases()
        return max(phases, key=lambda n: phases[n])

    def conservation_residual(self) -> float:
        """``|sum(phases) - latency|`` — 0 up to float roundoff."""
        return abs(math.fsum(self.phases().values()) - self.latency)


class RequestTracer:
    """Per-request causal trace recorder (one per traced run).

    Constructed only when the run is traced *and*
    ``RunConfig.reqtrace`` is set — the disabled path never enters this
    module.  The run attaches its batch log, read by :meth:`data`;
    the other hooks are called from the run's
    :class:`~repro.telemetry.observers.RunObservers` bundle.  None of
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
        #: Next request id == number of requests read so far; rid
        #: therefore indexes ``MetricsCollector.latencies()`` exactly.
        self._next_rid = 0
        self.n_batches_seen = 0
        self.n_requests_seen = 0
        self.events_dropped = 0
        self._records: dict[int, BatchTrace] = {}
        #: The tail reservoir: the ``tail_k`` worst (first-arrival
        #: latency, batch_id) pairs read so far.
        self._tail: list[tuple[float, int]] = []
        #: Reads the run's batch log.
        self.batches = BatchReader()
        #: Execution starts reported by the devices: the batch id, and
        #: (start time, co-run level, total FBR) per start.  A retried
        #: batch starts more than once; its last start is the one that
        #: completed.
        self._exec_ids = array("q")
        self._exec = array("d")
        self._events: list[dict[str, Any]] = []
        self._models: dict[str, float] = {}
        self._horizon = 0.0

    # ------------------------------------------------------------------
    # Setup-side hooks
    # ------------------------------------------------------------------
    def register_model(self, name: str, slo_seconds: float) -> None:
        """Record the served model's SLO (judges each request's verdict)."""
        self._models[name] = float(slo_seconds)

    def attach(self, log: BatchLog) -> None:
        """Trace the batches the run appends to ``log``."""
        self.batches.attach(log)

    # ------------------------------------------------------------------
    # Hot-path hook (one `is None` branch at the call site)
    # ------------------------------------------------------------------
    def on_execute_start(self, batch_id: int, now: float, hardware: str,
                         co_run: int, total_fbr: float) -> None:
        """A device started executing the batch (from ``GPUDevice._start``)."""
        self._exec_ids.append(batch_id)
        ex = self._exec
        ex.append(now)
        ex.append(co_run)
        ex.append(total_fbr)

    # ------------------------------------------------------------------
    # Reading the batch log
    # ------------------------------------------------------------------
    def on_batch_complete(self) -> None:
        """Read the batches the attached log completed since the last
        read: assign rids and retain per sampling policy.

        Every batch advances the rid counter, sampled or not, in
        completion order; a batch is kept when it is sampled or among
        the ``tail_k`` worst read so far, and a kept batch that later
        leaves that tail without being sampled is dropped again.
        """
        rows = self.batches.read()
        if not len(rows):
            return
        col = rows.rows
        size = col["size"]
        first_rid = self._next_rid + np.cumsum(size) - size
        n_requests = int(size.sum())
        self._next_rid += n_requests
        self.n_batches_seen += len(rows)
        self.n_requests_seen += n_requests
        bids = col["batch_id"]
        keep = sampled_batches(self.seed, bids, self.sample)
        in_tail = np.zeros(len(rows), dtype=bool)
        if self.tail_k > 0:
            lat = np.concatenate(
                ([t[0] for t in self._tail], rows.first_latencies())
            )
            ids = np.concatenate(
                (np.array([t[1] for t in self._tail], dtype=np.int64), bids)
            )
            top = np.lexsort((ids, lat))[::-1][:self.tail_k]
            tail = set(ids[top].tolist())
            for _, bid in self._tail:
                old = self._records.get(bid)
                if bid not in tail and old is not None and not old.sampled:
                    del self._records[bid]
            self._tail = list(zip(lat[top].tolist(), ids[top].tolist()))
            in_tail = np.isin(bids, ids[top])
        kept = np.flatnonzero(keep | in_tail)
        if not kept.size:
            return
        sub = col[kept]
        found, start, co_run, fbr = self._last_starts(sub["batch_id"])
        # A batch no device reported keeps the start its log row holds.
        start = np.where(found, start, sub["started_at"])
        models, modes, hardware = (rows.names[name] for name in
                                   ("model", "mode", "hardware"))
        arrivals = rows.arrivals
        records = self._records
        # Python rows are built a chunk at a time, to bound the memory of
        # the column lists.
        for lo in range(0, kept.size, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            cols = sub[part]
            starts = start[part].tolist()
            if np.isnan(start[part]).any():
                starts = [None if math.isnan(t) else t for t in starts]
            for (bid, rid, model, mode, hw, node_id, first, n, dispatched,
                 started, done, retries, phases, runs, total_fbr,
                 sampled) in zip(
                cols["batch_id"].tolist(), first_rid[kept[part]].tolist(),
                cols["model"].tolist(), cols["mode"].tolist(),
                cols["hardware"].tolist(), cols["node_id"].tolist(),
                cols["first"].tolist(), cols["size"].tolist(),
                cols["dispatched_at"].tolist(), starts,
                cols["completed_at"].tolist(), cols["retries"].tolist(),
                zip(*(cols[name].tolist() for name in PHASES)),
                co_run[part].tolist(), fbr[part].tolist(),
                keep[kept[part]].tolist(),
            ):
                records[bid] = BatchTrace(
                    bid, rid, models[model], modes[mode], hardware[hw],
                    node_id, arrivals[first:first + n], dispatched, started,
                    done, retries, phases, runs, total_fbr, sampled,
                )

    def _last_starts(self, batch_ids: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per batch id: whether a device reported its start, and the
        (start, co-run level, total FBR) of its last start."""
        ids = np.array(self._exec_ids, dtype=np.int64)
        n = batch_ids.size
        if not ids.size:
            return (np.zeros(n, dtype=bool), np.full(n, math.nan),
                    np.ones(n, dtype=np.int64), np.zeros(n))
        ex = np.array(self._exec).reshape(-1, 3)
        uniq, rev_first = np.unique(ids[::-1], return_index=True)
        last = ex[ids.size - 1 - rev_first]
        pos = np.minimum(np.searchsorted(uniq, batch_ids), uniq.size - 1)
        found = uniq[pos] == batch_ids
        last = last[pos]
        return (found, last[:, 0], np.where(found, last[:, 1], 1).astype(
            np.int64), np.where(found, last[:, 2], 0.0))

    def on_run_end(self, now: float) -> None:
        """Record the run horizon (the clock when the run finalizes)."""
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
        """Freeze the recorded state into a :class:`RequestTraceData`
        (reading the batches completed since the last read first)."""
        self.on_batch_complete()
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
