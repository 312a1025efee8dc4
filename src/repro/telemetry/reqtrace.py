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

Columnar, records on read
-------------------------
The simulator never materialises per-request Python objects on the hot
path (:class:`~repro.framework.request.Batch` carries a sorted arrivals
array), and neither does the tracer: a frozen trace keeps the retained
batches as batch-log rows (:class:`~repro.simulator.metrics.BatchRows`)
plus four columns of its own, and builds one :class:`BatchTrace` per
batch only when a reader asks for :attr:`RequestTraceData.records`.
Worst-K, rid lookup, the per-phase columns and the JSONL export work on
the columns.  Request ``i`` of a batch shares every phase with its
peers except the batching wait, which shrinks by how much later it
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
selections over the batch log, made once when the trace is frozen.
Because a batch's first arrival has the largest latency in the batch,
the ``tail_k`` worst *batches* contain at least the ``tail_k`` worst
*requests*, so worst-K forensics are exact at any sampling rate for
``K <= tail_k``.

Disabled path
-------------
Untraced runs (or ``RunConfig(reqtrace=False)``, the default) construct
no ``RequestTracer`` and make zero calls into this module, gated
deterministically (``sys.setprofile`` call counting) like the meter's.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from array import array
from dataclasses import dataclass
from typing import Any, Iterator, Optional

import numpy as np

from repro.framework.request import PHASES
from repro.simulator.metrics import ROW, BatchLog, BatchRows

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
    module.  The run attaches its batch log, read whole by :meth:`data`;
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
        self.n_batches_seen = 0
        self.n_requests_seen = 0
        self.events_dropped = 0
        #: The run's batch log.
        self._log: Optional[BatchLog] = None
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
        if self._log is not None and self._log is not log:
            raise ValueError("a request tracer reads one run's batch log")
        self._log = log

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
    def on_batch_complete(self) -> tuple[BatchRows, dict[str, np.ndarray]]:
        """Read the attached batch log: assign rids and select the kept
        batches.

        Every batch takes the next rids in completion order, sampled or
        not, so a batch's first rid is its arrivals' offset in the log.
        A batch is kept when it is sampled or among the ``tail_k`` worst
        by (first-arrival latency, batch id).  Returns the kept rows
        (a copy, ``started_at`` set to each batch's last device start)
        and, per kept row, the columns :class:`RequestTraceData` holds
        next to them.
        """
        log = self._log if self._log is not None else BatchLog()
        self.n_batches_seen = len(log)
        self.n_requests_seen = log.n_requests
        rows = log.view()
        bids = rows["batch_id"]
        sampled = keep = sampled_batches(self.seed, bids, self.sample)
        if self.tail_k > 0 and len(rows):
            keep = sampled.copy()
            worst = np.lexsort((bids, rows.first_latencies()))
            keep[worst[-self.tail_k:]] = True
        first_rid = rows["first"][keep]
        kept = rows.select(keep)
        kept.names = {col: list(v) for col, v in log.names.items()}
        found, start, co_run, fbr = self._last_starts(kept["batch_id"])
        # A batch's last start; one no device reported keeps its own.
        kept.rows["started_at"] = np.where(found, start, kept["started_at"])
        return kept, {"first_rid": first_rid, "co_run": co_run,
                      "total_fbr": fbr, "sampled": sampled[keep]}

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
        (reading the whole batch log)."""
        rows, columns = self.on_batch_complete()
        meta = {
            "schema": REQTRACE_SCHEMA,
            "sample": self.sample,
            "tail_k": self.tail_k,
            "seed": self.seed,
            "horizon": self._horizon,
            "n_batches_seen": self.n_batches_seen,
            "n_requests_seen": self.n_requests_seen,
            "n_batches_traced": len(rows),
            "events_dropped": self.events_dropped,
            "models": dict(self._models),
        }
        return RequestTraceData(meta, rows, list(self._events), **columns)


class RequestTraceData:
    """A frozen request trace: meta, the kept batches as columns, and
    the auxiliary events.

    ``rows`` holds the kept batches as batch-log rows in rid order, their
    arrivals back to back from index 0 and ``started_at`` the batch's
    last start (NaN when none was reported); next to them, one value per
    row: ``first_rid``, ``co_run``, ``total_fbr`` and ``sampled``.
    :class:`BatchTrace` records are built only when :attr:`records` is
    read.  Produced live by :meth:`RequestTracer.data` or loaded from
    disk by :func:`read_reqtrace`; both fill the same columns
    (round-trip safe).  Read-only.
    """

    def __init__(self, meta: dict[str, Any], rows: BatchRows,
                 events: list[dict[str, Any]], *, first_rid: np.ndarray,
                 co_run: np.ndarray, total_fbr: np.ndarray,
                 sampled: np.ndarray) -> None:
        self.meta = meta
        self.rows = rows
        self.events = events
        self.first_rid = first_rid
        self.co_run = co_run
        self.total_fbr = total_fbr
        self.sampled = sampled
        self._records: Optional[list[BatchTrace]] = None

    @property
    def records(self) -> list[BatchTrace]:
        """One :class:`BatchTrace` per kept batch in rid order, built on
        first read."""
        if self._records is None:
            self._records = self._traces(np.arange(len(self.rows)))
        return self._records

    def _traces(self, idx: np.ndarray) -> list[BatchTrace]:
        """The :class:`BatchTrace` of each row in ``idx``."""
        if self._records is not None:
            return [self._records[i] for i in idx.tolist()]
        rows = self.rows
        col = rows.rows[idx]
        models, modes, hardware = (rows.names[name] for name in
                                   ("model", "mode", "hardware"))
        arrivals = rows.arrivals
        return [
            BatchTrace(
                bid, rid, models[model], modes[mode], hardware[hw], node_id,
                arrivals[first:first + n], dispatched,
                None if math.isnan(started) else started, done, retries,
                phases, runs, total_fbr, sampled,
            )
            for (bid, rid, model, mode, hw, node_id, first, n, dispatched,
                 started, done, retries, phases, runs, total_fbr,
                 sampled) in zip(
                col["batch_id"].tolist(), self.first_rid[idx].tolist(),
                col["model"].tolist(), col["mode"].tolist(),
                col["hardware"].tolist(), col["node_id"].tolist(),
                col["first"].tolist(), col["size"].tolist(),
                col["dispatched_at"].tolist(), col["started_at"].tolist(),
                col["completed_at"].tolist(),
                col["retries"].tolist(),
                zip(*(col[name].tolist() for name in PHASES)),
                self.co_run[idx].tolist(), self.total_fbr[idx].tolist(),
                self.sampled[idx].tolist(),
            )
        ]

    @property
    def n_requests_traced(self) -> int:
        return int(self.rows["size"].sum())

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
        # The rightmost batch whose first rid is <= rid.
        i = int(np.searchsorted(self.first_rid, rid, side="right")) - 1
        if i >= 0 and rid - int(self.first_rid[i]) < int(self.rows["size"][i]):
            (rec,) = self._traces(np.array([i]))
            return RequestView(rec, rid - rec.first_rid,
                               self._slo_of(rec.model))
        raise KeyError(
            f"request {rid} is not in the trace (sampled out or out of "
            f"range; {self.n_requests_traced} of "
            f"{self.meta.get('n_requests_seen', 0)} requests retained)"
        )

    def worst(self, k: int) -> list[RequestView]:
        """The ``k`` worst traced requests by latency (ties by rid)."""
        k = max(0, int(k))
        if not (k and len(self.rows)):
            return []
        size = self.rows["size"]
        rids = (np.repeat(self.first_rid - self.rows["first"], size)
                + np.arange(size.sum()))
        top = np.lexsort((rids, -self.rows.latencies()))[:k]
        return [self.request(rid) for rid in rids[top].tolist()]

    def phase_arrays(self) -> dict[str, np.ndarray]:
        """Per-phase columns across every traced request (for P50/P99)."""
        rows = self.rows
        size = rows["size"]
        out = {name: np.repeat(rows[name], size) for name in PHASES}
        arrivals = rows.arrivals
        out["batching_wait"] -= arrivals - np.repeat(arrivals[rows["first"]],
                                                     size)
        out["latency"] = rows.latencies()
        return out

    def events_between(self, t0: float, t1: float) -> list[dict[str, Any]]:
        """Auxiliary events (nodes, retries, breakers) in ``[t0, t1]``."""
        return [e for e in self.events if t0 <= e["t"] <= t1]

    # ------------------------------------------------------------------
    # Persistence (schema repro.reqtrace/1, JSONL like the other pillars)
    # ------------------------------------------------------------------
    def _batch_lines(self) -> Iterator[dict[str, Any]]:
        """One ``reqtrace_batch`` record per kept batch, a row at a time."""
        rows = self.rows
        fields = rows.rows.dtype.names
        models, modes, hardware = (rows.names[name] for name in
                                   ("model", "mode", "hardware"))
        arrivals = rows.arrivals
        for row, rid, co_run, total_fbr, sampled in zip(
            rows.rows, self.first_rid, self.co_run, self.total_fbr,
            self.sampled,
        ):
            r = dict(zip(fields, row.item()))
            first, started = r["first"], r["started_at"]
            yield {
                "type": "reqtrace_batch",
                "batch_id": r["batch_id"],
                "first_rid": rid.item(),
                "model": models[r["model"]],
                "mode": modes[r["mode"]],
                "hardware": hardware[r["hardware"]],
                "node_id": r["node_id"],
                "arrivals": arrivals[first:first + r["size"]].tolist(),
                "dispatched_at": r["dispatched_at"],
                "started_at": None if math.isnan(started) else started,
                "completed_at": r["completed_at"],
                "retries": r["retries"],
                "phases": {name: r[name] for name in PHASES},
                "co_run": co_run.item(),
                "total_fbr": total_fbr.item(),
                "sampled": sampled.item(),
            }

    def save_jsonl(self, path: str) -> int:
        """Write the trace as ``repro.reqtrace/1`` JSONL; returns the
        number of lines written."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for record in itertools.chain(
                ({"type": "reqtrace_meta", **self.meta},),
                self._batch_lines(),
                ({"type": "reqtrace_event", **ev} for ev in self.events),
            ):
                fh.write(json.dumps(record))
                fh.write("\n")
                n += 1
        return n


#: A batch's values in :data:`ROW` order, from a dict by field name.
_row_values = operator.itemgetter(*ROW.names)

#: The fields of a ``reqtrace_batch`` line, besides its ``type``.
_BATCH_FIELDS = frozenset((
    "batch_id", "first_rid", "model", "mode", "hardware", "node_id",
    "arrivals", "dispatched_at", "started_at", "completed_at", "retries",
    "phases", "co_run", "total_fbr", "sampled",
))


def _batch_row(obj: dict[str, Any], first: int,
               names: dict[str, list], codes: dict[str, dict]) -> tuple:
    """Parse one ``reqtrace_batch`` record into ``(ROW values, arrivals,
    first_rid, co_run, total_fbr, sampled)``; its arrivals start at
    ``first`` in the trace's arrivals, and its named columns are coded
    in ``names``/``codes`` as :class:`BatchLog` codes them."""
    if obj.keys() != _BATCH_FIELDS:
        missing = sorted(_BATCH_FIELDS - obj.keys())
        unknown = sorted(obj.keys() - _BATCH_FIELDS)
        raise ValueError(f"missing fields {missing}" if missing
                         else f"unknown fields {unknown}")
    arrivals = np.asarray(obj["arrivals"], dtype=np.float64)
    if arrivals.ndim != 1 or not arrivals.size:
        raise ValueError("arrivals must be a non-empty list of numbers")
    started = obj["started_at"]
    phases = obj["phases"]
    values = {name: float(phases[name]) for name in PHASES}
    for column in ("model", "hardware", "mode"):
        code = codes[column].get(obj[column])
        if code is None:
            code = codes[column][obj[column]] = len(names[column])
            names[column].append(obj[column])
        values[column] = code
    values.update(
        dispatched_at=float(obj["dispatched_at"]),
        started_at=math.nan if started is None else float(started),
        completed_at=float(obj["completed_at"]),
        batch_id=int(obj["batch_id"]), node_id=int(obj["node_id"]),
        retries=int(obj["retries"]), first=first, size=arrivals.size,
    )
    return (_row_values(values), arrivals,
            int(obj["first_rid"]), int(obj["co_run"]),
            float(obj["total_fbr"]), bool(obj["sampled"]))


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
    batches: list[tuple] = []
    events: list[dict[str, Any]] = []
    names: dict[str, list] = {"model": [], "hardware": [], "mode": []}
    codes: dict[str, dict] = {column: {} for column in names}
    first = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            kind = obj.pop("type", None)
            if kind == "reqtrace_meta":
                if obj.get("schema") != REQTRACE_SCHEMA:
                    raise ValueError(
                        f"{path}:{lineno}: schema "
                        f"{obj.get('schema')!r} is not {REQTRACE_SCHEMA!r}"
                    )
                meta = obj
            elif kind == "reqtrace_batch":
                try:
                    batch = _batch_row(obj, first, names, codes)
                except (KeyError, TypeError, ValueError) as exc:
                    detail = (f"missing phase {exc}"
                              if isinstance(exc, KeyError) else exc)
                    raise ValueError(
                        f"{path}:{lineno}: malformed reqtrace_batch: {detail}"
                    ) from exc
                batches.append(batch)
                first += batch[1].size
            elif kind == "reqtrace_event":
                t = obj.get("t")
                if ("kind" not in obj or isinstance(t, bool)
                        or not isinstance(t, (int, float))):
                    raise ValueError(
                        f"{path}:{lineno}: malformed reqtrace_event: needs "
                        "a kind and a numeric t"
                    )
                events.append(obj)
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown record type {kind!r}"
                )
    if meta is None:
        raise ValueError(f"{path}: missing reqtrace_meta header line")
    values, arrivals, first_rid, co_run, fbr, sampled = (
        zip(*batches) if batches else ((),) * 6
    )
    rows = BatchRows(
        np.array(list(values), dtype=ROW),
        np.concatenate(arrivals) if arrivals else np.empty(0), names,
    )
    columns = {
        "first_rid": np.array(first_rid, dtype=np.int64),
        "co_run": np.array(co_run, dtype=np.int64),
        "total_fbr": np.array(fbr, dtype=np.float64),
        "sampled": np.array(sampled, dtype=bool),
    }
    order = np.argsort(columns["first_rid"], kind="stable")
    if (np.diff(order) < 0).any():  # lines out of rid order
        rows = rows.select(order)
        columns = {name: col[order] for name, col in columns.items()}
    return RequestTraceData(meta, rows, events, **columns)
