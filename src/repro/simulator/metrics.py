"""Run metrics: the columnar batch log, SLO accounting, goodput, breakdowns.

One :class:`MetricsCollector` per (scheme, run).  Each completed batch is
appended once, as one row of the collector's :class:`BatchLog`; every
view below (latencies, compliance, goodput, tail breakdown, hardware and
mode splits) is column arithmetic over that log.  The telemetry pillars
read the same log through a :class:`BatchReader` — per tick or at
finalize — instead of being called once per batch.

Requests still unfinished when the run ends are counted as SLO violations
with an effectively infinite latency (the paper's compliance percentages
are over *all* requests).
"""

from __future__ import annotations

import math
import struct
from typing import Optional

import numpy as np

from repro.framework.request import PHASES, Batch

__all__ = ["ROW", "BatchLog", "BatchReader", "BatchRows", "MetricsCollector"]

_FLOATS = ("dispatched_at", "started_at", "completed_at") + PHASES
_INTS = ("batch_id", "node_id", "model", "hardware", "mode", "retries",
         "first", "size")
#: One batch-log row.  ``started_at`` is NaN for a batch that never
#: reported a start.  ``model``, ``hardware`` and ``mode`` index the
#: log's :attr:`BatchLog.names`; ``first`` and ``size`` locate the batch's
#: arrivals in the flat arrivals buffer.
ROW = np.dtype([(name, "f8") for name in _FLOATS]
               + [(name, "i8") for name in _INTS])
_WIDTH = ROW.itemsize
_pack_row = struct.Struct(f"={len(_FLOATS)}d{len(_INTS)}q").pack
_NAMED = ("model", "hardware", "mode")


class BatchRows:
    """Some batch-log rows, in completion order.

    ``rows`` is a :data:`ROW` array (read a column as
    ``rows["completed_at"]``); ``rows["first"]`` indexes ``arrivals``,
    where the rows' arrivals lie contiguously in row order; ``names``
    maps each named column to the values its codes index.
    """

    __slots__ = ("rows", "arrivals", "names")

    def __init__(self, rows: np.ndarray, arrivals: np.ndarray,
                 names: dict[str, list]) -> None:
        self.rows = rows
        self.arrivals = arrivals
        self.names = names

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, column: str) -> np.ndarray:
        return self.rows[column]

    def latencies(self) -> np.ndarray:
        """Every request's latency, in row order."""
        rows = self.rows
        if not len(rows):
            return np.empty(0)
        first, size = rows["first"], rows["size"]
        return (np.repeat(rows["completed_at"], size)
                - self.arrivals[first[0]:first[-1] + size[-1]])

    def first_latencies(self) -> np.ndarray:
        """Each batch's latency of its first (worst) request."""
        return self.rows["completed_at"] - self.arrivals[self.rows["first"]]

    def labels(self, column: str) -> list:
        """The named column's value for every row."""
        names = self.names[column]
        return [names[code] for code in self.rows[column].tolist()]

    def select(self, mask: np.ndarray) -> "BatchRows":
        """A copy of the rows ``mask`` picks (a boolean mask, or row
        indices in the order wanted), with their arrivals gathered back
        to back in row order."""
        rows = self.rows[mask]
        size = rows["size"]
        start = np.cumsum(size) - size
        arrivals = self.arrivals[
            np.repeat(rows["first"] - start, size) + np.arange(size.sum())
        ]
        rows["first"] = start
        return BatchRows(rows, arrivals, self.names)


class BatchLog:
    """Append-only columnar log of completed batches, one row per batch.

    Rows are packed into one ``bytearray`` in the :data:`ROW` layout and
    every batch's arrivals into another, so a batch costs 136 bytes plus
    8 per request and no Python object.  :meth:`rows` returns a copy;
    :meth:`view` does not, and the log cannot grow while a view is alive,
    so a view must not outlive the computation that reads it.
    """

    __slots__ = ("_rows", "_arrivals", "n_requests", "names", "_codes")

    def __init__(self) -> None:
        self._rows = bytearray()
        self._arrivals = bytearray()
        #: Requests in the logged batches.
        self.n_requests = 0
        #: Per named column, its distinct values in first-occurrence
        #: order; a row stores the index.  Hardware may be ``None``.
        self.names: dict[str, list] = {col: [] for col in _NAMED}
        self._codes: dict[str, dict] = {col: {} for col in _NAMED}

    def __len__(self) -> int:
        return len(self._rows) // _WIDTH

    def _code(self, column: str, name) -> int:
        codes = self._codes[column]
        code = codes[name] = len(codes)
        self.names[column].append(name)
        return code

    def append(self, batch: Batch, node_id: int) -> None:
        """Log one completed batch that ran on ``node_id``."""
        codes = self._codes
        model = codes["model"].get(batch.model.name)
        if model is None:
            model = self._code("model", batch.model.name)
        hardware = codes["hardware"].get(batch.hardware_name)
        if hardware is None:
            hardware = self._code("hardware", batch.hardware_name)
        mode = codes["mode"].get(batch.mode)
        if mode is None:
            mode = self._code("mode", batch.mode)
        bd = batch.breakdown
        arrivals = batch.arrivals
        started = batch.started_at
        self._rows += _pack_row(
            batch.dispatched_at,
            math.nan if started is None else started,
            batch.completed_at,
            bd.batching_wait, bd.cold_start_wait, bd.queue_delay,
            bd.exec_solo, bd.interference_extra, bd.failure_wait,
            batch.batch_id, node_id, model, hardware, mode,
            batch.retries, self.n_requests, arrivals.size,
        )
        self._arrivals += arrivals.tobytes()
        self.n_requests += arrivals.size

    def view(self, lo: int = 0, hi: Optional[int] = None) -> BatchRows:
        """Rows ``[lo, hi)`` without copying (see the class note)."""
        if hi is None:
            hi = len(self)
        rows = np.frombuffer(self._rows, dtype=ROW, count=hi - lo,
                             offset=lo * _WIDTH)
        return BatchRows(rows, np.frombuffer(self._arrivals), self.names)

    def rows(self, lo: int = 0, hi: Optional[int] = None) -> BatchRows:
        """A copy of rows ``[lo, hi)`` (default: to the end)."""
        if hi is None:
            hi = len(self)
        rows = np.frombuffer(self._rows[lo * _WIDTH:hi * _WIDTH], dtype=ROW)
        a0 = a1 = 0
        if len(rows):
            a0 = int(rows["first"][0])
            a1 = int(rows["first"][-1] + rows["size"][-1])
            rows["first"] -= a0
        arrivals = np.frombuffer(self._arrivals[8 * a0:8 * a1])
        return BatchRows(rows, arrivals,
                         {col: list(v) for col, v in self.names.items()})


class BatchReader:
    """Reads one run's batch log forward, for one telemetry pillar.

    Each :meth:`read` returns the rows the log appended since the
    previous read.
    """

    __slots__ = ("log", "_read")

    def __init__(self) -> None:
        self.log: Optional[BatchLog] = None
        self._read = 0

    def attach(self, log: BatchLog) -> None:
        if self.log is not None and self.log is not log:
            raise ValueError("a batch reader reads one run's batch log")
        self.log = log

    def pending(self) -> bool:
        """Whether the log has rows this reader has not read yet."""
        return self.log is not None and len(self.log) > self._read

    def read(self, copy: bool = True) -> BatchRows:
        """The rows appended since the last read; with ``copy=False``
        they are a :meth:`BatchLog.view`, to be dropped after use."""
        log = self.log
        if log is None:
            return BatchLog().view()
        lo, self._read = self._read, len(log)
        return log.rows(lo, self._read) if copy else log.view(lo, self._read)


class MetricsCollector:
    """Accumulates batch completions and unserved-request counts."""

    def __init__(self) -> None:
        self.log = BatchLog()
        self.unserved_requests = 0
        self.total_requests_offered = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_batch(self, batch: Batch, node_id: int = -1) -> None:
        """Log a completed batch that ran on ``node_id``."""
        if batch.completed_at is None:
            raise ValueError(f"batch {batch.batch_id} has not completed")
        self.log.append(batch, node_id)

    def record_offered(self, n: int) -> None:
        """Count requests offered to the system (arrivals)."""
        self.total_requests_offered += int(n)

    def record_unserved(self, n: int) -> None:
        """Count requests never completed (dropped or still queued at the
        end of the run); they are SLO violations by definition."""
        self.unserved_requests += int(n)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _view(self, model: Optional[str] = None) -> BatchRows:
        """The log (or ``model``'s rows, copied), for one view method."""
        view = self.log.view()
        if model is None:
            return view
        models = view.names["model"]
        code = models.index(model) if model in models else -1
        return view.select(view["model"] == code)

    def latencies(self, model: Optional[str] = None) -> np.ndarray:
        """All per-request latencies (seconds), vectorised."""
        return self._view(model).latencies()

    def completed_requests(self, model: Optional[str] = None) -> int:
        if model is None:
            return self.log.n_requests
        return int(self._view(model)["size"].sum())

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------
    def slo_compliance(self, slo_seconds: float, model: Optional[str] = None) -> float:
        """Fraction of *offered* requests finishing within the SLO.

        Unserved requests count against compliance.  When offered counts
        were not recorded, the denominator falls back to completed +
        unserved.
        """
        lat = self.latencies(model)
        met = int(np.count_nonzero(lat <= slo_seconds))
        denom = self.total_requests_offered
        if denom <= 0 or model is not None:
            denom = lat.size + (self.unserved_requests if model is None else 0)
        if model is None:
            denom = max(denom, lat.size + self.unserved_requests)
        if denom == 0:
            return 1.0
        return met / denom

    def percentile_latency(
        self, q: float, model: Optional[str] = None
    ) -> float:
        """Latency percentile in seconds (e.g. ``q=99`` for P99)."""
        lat = self.latencies(model)
        if lat.size == 0:
            return 0.0
        return float(np.percentile(lat, q))

    def goodput(
        self,
        slo_seconds: float,
        window: tuple[float, float],
        model: Optional[str] = None,
    ) -> float:
        """SLO-compliant completions per second whose *arrivals* fall in
        ``window`` (Fig 7a's surge-tolerance metric)."""
        t0, t1 = window
        if t1 <= t0:
            raise ValueError("empty goodput window")
        rows = self._view(model)
        lat = rows.latencies()
        arrivals = rows.arrivals[:lat.size]
        good = (arrivals >= t0) & (arrivals < t1) & (lat <= slo_seconds)
        return int(np.count_nonzero(good)) / (t1 - t0)

    # ------------------------------------------------------------------
    # Tail-latency breakdown (Figs 1 and 4)
    # ------------------------------------------------------------------
    def tail_breakdown(
        self, q: float = 99.0, model: Optional[str] = None, tail_frac: float = 0.05
    ) -> dict[str, float]:
        """Average latency breakdown of the batches around the P``q`` tail.

        Mirrors the paper's stacked tail bars: among batches whose
        completion latency (of their first arrival — the worst request)
        falls in the top ``tail_frac`` of per-batch latencies, average each
        breakdown component.  Returns seconds per component plus 'total'.
        """
        rows = self._view(model)
        if not len(rows):
            return {**dict.fromkeys(PHASES, 0.0), "total": 0.0}
        worst = rows.first_latencies()
        tail = worst >= np.percentile(worst, q)
        if not tail.any():
            tail[:] = True
        out = {name: float(np.mean(rows[name][tail])) for name in PHASES}
        out["total"] = float(sum(out.values()))
        return out

    def _requests_by(self, column: str) -> dict[str, int]:
        rows = self._view()
        names = rows.names[column]
        counts = np.bincount(rows[column], weights=rows["size"],
                             minlength=len(names))
        return {name or "?": int(n) for name, n in zip(names, counts)}

    def hardware_usage(self) -> dict[str, int]:
        """Completed-request counts per hardware type."""
        return self._requests_by("hardware")

    def mode_split(self) -> dict[str, int]:
        """Completed-request counts per share mode (spatial/temporal)."""
        return self._requests_by("mode")
