"""Live SLO burn-rate monitoring: sliding-window attainment and alerts.

The tracer records *what happened*; this module judges the SLO as it
went.  A :class:`SLOMonitor` evaluates one sliding window (default 30
sim-seconds) of request completions per **model** and per **hardware**
track at every tick: windowed attainment, p99, and the SRE-style **burn
rate** — the ratio of the window's violation rate to the SLO's allowed
error budget (``1 - compliance_goal``).  A burn rate of 1.0 spends the
error budget exactly as fast as the SLO allows; 2.0 spends it twice as
fast.

When a window of at least :data:`MIN_WINDOW_REQUESTS` requests burns at
:data:`BURN_RATE_THRESHOLD` or more, the monitor raises a ``slo_alert``
trace event (``state="firing"``), and a matching ``state="resolved"``
event when it drops back — so autoscaler or selector misbehaviour is
visible *in the trace timeline* next to the decisions that caused it,
not only in a post-mortem aggregate.  Alerts are edge-triggered per key:
a window that stays bad fires once.

A tick at ``t`` judges the lane's batches that completed in
``[t - window, t]``.  They are rows of the lane's batch log
(:class:`~repro.simulator.metrics.BatchLog`), which appends each batch
when it completes, so the rows are in completion order; completions run
before telemetry at a shared instant, so every row a tick judges is
logged by the time it runs.  The monitor therefore computes nothing
while the run goes: a tick notes its time and its place in the tracer's
event list, and the log is read once, at finalize (or when the alerts,
the windows or the sampler's ``slo.*`` columns are read earlier).  That
read is column arithmetic: per (scope, key) prefix sums of requests and
violations, two binary searches per instant, and a p99 only for the
windows whose alert flips.

The monitor is a pure observer: it never touches the control plane, and
it only exists when tracing is enabled (``RunObservers.for_run``
constructs it), so a run without it is bit-identical.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Optional

import numpy as np

from repro.simulator.metrics import BatchLog
from repro.telemetry.tracer import TraceEventRecord, Tracer

__all__ = [
    "BURN_RATE_THRESHOLD",
    "MIN_WINDOW_REQUESTS",
    "SLOMonitor",
    "WindowStats",
]

#: A window fires when its violation rate reaches this multiple of the
#: error budget.
BURN_RATE_THRESHOLD = 2.0
#: Windows with fewer requests never fire (a single violating request in
#: a near-idle window is noise, not a burn).
MIN_WINDOW_REQUESTS = 20
#: The scopes in sorted order, so windows are visited in (scope, key)
#: order.
_SCOPES = ("hardware", "model")


def _key(scope: str, name) -> str:
    """The window key of a log name (hardware ``None`` is ``"?"``)."""
    return (name or "?") if scope == "hardware" else name


class WindowStats(NamedTuple):
    """One (scope, key) window's state at an instant."""

    scope: str  # "model" | "hardware"
    key: str
    n_requests: int
    n_violations: int
    attainment: float  # fraction of windowed requests meeting the SLO
    p99_seconds: float
    burn_rate: float
    firing: bool


class _Rows:
    """The log's rows from ``start`` on, arranged for window arithmetic.

    ``done`` holds their completion times, ascending.  ``keys`` lists
    every window the log has names for, in (scope, key) order; window
    ``j``'s rows complete at ``key_done[j]``, and ``key_requests[j]`` /
    ``key_violations[j]`` are the prefix sums of their requests and
    violations (from 0), so its totals at any instant take two binary
    searches.  Rows before ``start`` completed at or before ``floor``.
    """

    def __init__(self, log: BatchLog, start: int, floor: float,
                 slo_seconds: float) -> None:
        rows = log.view(start)
        self.start, self.end, self.floor = start, start + len(rows), floor
        self.done = rows["completed_at"].copy()
        size = rows["size"]
        violations = np.zeros(0, np.int64)
        if len(rows):
            first = rows["first"]
            # Requests over the SLO, summed per batch (no batch is empty).
            violations = np.add.reduceat(rows.latencies() > slo_seconds,
                                         first - first[0], dtype=np.int64)
        self.keys: list[tuple[str, str]] = []
        self.key_done: list[np.ndarray] = []
        self.key_requests: list[np.ndarray] = []
        self.key_violations: list[np.ndarray] = []
        for scope in _SCOPES:
            names = [_key(scope, name) for name in rows.names[scope]]
            keys = sorted(set(names))
            of_row = np.array([keys.index(k) for k in names],
                              np.intp)[rows[scope]]
            # Each key's rows, kept in completion order.
            order = np.argsort(of_row, kind="stable")
            bounds = np.searchsorted(of_row[order], np.arange(len(keys) + 1))
            for j, key in enumerate(keys):
                picked = order[bounds[j]:bounds[j + 1]]
                self.keys.append((scope, key))
                self.key_done.append(self.done[picked])
                self.key_requests.append(
                    np.concatenate(([0], np.cumsum(size[picked])))
                )
                self.key_violations.append(
                    np.concatenate(([0], np.cumsum(violations[picked])))
                )

    def windows(self, times: np.ndarray,
                width: float) -> tuple[np.ndarray, np.ndarray]:
        """Every window's request and violation totals over
        ``[t - width, t]`` for each ``t`` in ``times``: two
        ``(window, time)`` arrays."""
        cutoffs = times - width
        requests = np.empty((len(self.keys), len(times)), np.int64)
        violations = np.empty_like(requests)
        for j, done in enumerate(self.key_done):
            lo = np.searchsorted(done, cutoffs, "left")
            hi = np.searchsorted(done, times, "right")
            requests[j] = self.key_requests[j][hi] - self.key_requests[j][lo]
            violations[j] = (self.key_violations[j][hi]
                             - self.key_violations[j][lo])
        return requests, violations


class SLOMonitor:
    """Sliding-window SLO attainment tracker with burn-rate alerts.

    Parameters
    ----------
    slo_seconds:
        The per-request deadline attainment is judged against.
    tracer:
        Sink for ``slo_alert`` events (and nothing else).  An enabled
        tracer takes the alerts of the ticks so far whenever its events
        are read (:meth:`Tracer.defer`).
    window_seconds:
        Sliding-window width in sim-seconds.
    compliance_goal:
        Target attainment (the paper's >= 99%); the error budget is
        ``1 - compliance_goal``.
    """

    def __init__(
        self,
        slo_seconds: float,
        tracer: Optional[Tracer] = None,
        window_seconds: float = 30.0,
        compliance_goal: float = 0.99,
    ) -> None:
        if slo_seconds <= 0:
            raise ValueError("slo_seconds must be positive")
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if not 0 < compliance_goal < 1:
            raise ValueError("compliance_goal must be in (0, 1)")
        self.slo_seconds = float(slo_seconds)
        self.tracer = tracer if tracer is not None and tracer.enabled else None
        self.window_seconds = float(window_seconds)
        self.compliance_goal = float(compliance_goal)
        self._log: Optional[BatchLog] = None
        #: Every tick so far, as (time, the tracer's mark at the tick).
        self._ticks: list[tuple[float, int]] = []
        self._decided = 0  # ticks whose alerts are raised
        self._firing: set[tuple[str, str]] = set()
        self._alerts = 0
        #: Raised alerts the tracer has not taken yet, as (mark, event).
        self._placed: list[tuple[int, TraceEventRecord]] = []
        #: The last read of the log.
        self._rows: Optional[_Rows] = None
        if self.tracer is not None:
            self.tracer.defer(self._take_alerts)

    def attach(self, log: BatchLog) -> None:
        """Watch the batches a lane appends to ``log``."""
        if self._log is not None and self._log is not log:
            raise ValueError("an SLO monitor watches one lane's batch log")
        self._log = log

    def sample(self, now: float) -> None:
        """One monitor tick: note when it ran and where its alerts belong
        in the tracer's event list.  They are raised when the log is
        read (:meth:`observe_batch`)."""
        tracer = self.tracer
        self._ticks.append((now, tracer.mark() if tracer is not None else 0))

    # ------------------------------------------------------------------
    # Reading the log
    # ------------------------------------------------------------------
    def _read(self, cutoff: float) -> _Rows:
        """The log's rows that windows starting at ``cutoff`` or later can
        hold (``-inf``: all of them), read again only once the log grew."""
        rows = self._rows
        if rows is not None and rows.end == len(self._log) and (
            rows.start == 0 or rows.floor < cutoff
        ):
            return rows
        start, floor = 0, -math.inf
        if rows is not None and rows.floor < cutoff:
            # Rows the last read holds that completed before the cutoff
            # are in no window from here on.
            i = int(np.searchsorted(rows.done, cutoff, "left"))
            if i:
                start, floor = rows.start + i, float(rows.done[i - 1])
        self._rows = rows = _Rows(self._log, start, floor, self.slo_seconds)
        return rows

    def _rates(self, requests: np.ndarray,
               violations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(attainment, burn rate)`` of windows with these totals (1.0
        and 0.0 for an empty one)."""
        rate = violations / np.maximum(requests, 1)
        return 1.0 - rate, rate / (1.0 - self.compliance_goal)

    def _p99s(self, rows: _Rows, now: float,
              idents: list[tuple[str, str]]) -> list[float]:
        """Each (scope, key) window's latency p99 at ``now``, from the log
        rows inside the window (their latencies computed once)."""
        lo = rows.start + int(np.searchsorted(
            rows.done, now - self.window_seconds, "left"))
        hi = rows.start + int(np.searchsorted(rows.done, now, "right"))
        if lo == hi:
            return [0.0] * len(idents)
        window = self._log.view(lo, hi)
        latencies = window.latencies()
        out = []
        for scope, key in idents:
            in_key = np.array([_key(scope, name) == key
                               for name in window.names[scope]])
            mask = in_key[window[scope]]
            out.append(float(np.percentile(
                latencies[np.repeat(mask, window["size"])], 99.0
            )) if mask.any() else 0.0)
        return out

    def observe_batch(self) -> None:
        """Read the log once for the ticks not yet decided and raise their
        alerts.

        At each tick a window of at least :data:`MIN_WINDOW_REQUESTS`
        requests burning at :data:`BURN_RATE_THRESHOLD` or more is
        firing.  Each flip raises a ``slo_alert`` — ``firing`` on the
        first bad tick, ``resolved`` on the first good one after — with
        the window's p99 at that tick; a tick's alerts go, in
        (scope, key) order, where the tick stood in the tracer's event
        list.
        """
        pending = self._ticks[self._decided:]
        self._decided = len(self._ticks)
        if not pending or self._log is None:
            return
        times = np.array([t for t, _ in pending])
        rows = self._read(times[0] - self.window_seconds)
        requests, violations = rows.windows(times, self.window_seconds)
        attainment, burn = self._rates(requests, violations)
        fire = ((requests >= MIN_WINDOW_REQUESTS)
                & (burn >= BURN_RATE_THRESHOLD))
        before = np.array([ident in self._firing for ident in rows.keys],
                          bool).reshape(-1, 1)
        flips = fire != np.hstack((before, fire[:, :-1]))
        tick_of, key_of = np.nonzero(flips.T)  # by tick, then by window
        for i, group in groupby(zip(tick_of.tolist(), key_of.tolist()),
                                key=itemgetter(0)):
            now, mark = pending[i]
            flipped = [j for _, j in group]
            p99s = self._p99s(rows, now, [rows.keys[j] for j in flipped])
            for j, p99 in zip(flipped, p99s):
                ident, firing = rows.keys[j], bool(fire[j, i])
                if firing:
                    self._firing.add(ident)
                else:
                    self._firing.discard(ident)
                self._alerts += 1
                if self.tracer is not None:
                    self._placed.append((mark, self._alert(now, WindowStats(
                        *ident, int(requests[j, i]), int(violations[j, i]),
                        float(attainment[j, i]), p99, float(burn[j, i]),
                        firing,
                    ))))

    def _take_alerts(self) -> list[tuple[int, TraceEventRecord]]:
        """The alerts of the ticks so far that the tracer has not taken,
        as ``(mark, event)`` (the tracer's deferred source)."""
        self.observe_batch()
        placed, self._placed = self._placed, []
        return placed

    def _alert(self, now: float, s: WindowStats) -> TraceEventRecord:
        return TraceEventRecord(
            "slo_alert", "alert", "slo-monitor", float(now), {
                "state": "firing" if s.firing else "resolved",
                "scope": s.scope,
                "key": s.key,
                "attainment": s.attainment,
                "p99_seconds": s.p99_seconds,
                "burn_rate": s.burn_rate,
                "burn_rate_threshold": BURN_RATE_THRESHOLD,
                "window_seconds": self.window_seconds,
                "n_requests": s.n_requests,
                "n_violations": s.n_violations,
                "slo_seconds": self.slo_seconds,
            },
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def alerts_emitted(self) -> int:
        """``slo_alert`` transitions of the ticks so far."""
        self.observe_batch()
        return self._alerts

    def window_stats(
        self, now: float, include_p99: bool = True
    ) -> list[WindowStats]:
        """Every window with a batch completed by ``now``, evaluated at
        ``now``, in (scope, key) order; ``firing`` is its alert state
        after the last tick.

        ``include_p99=False`` skips the latency percentiles (the only part
        that reads latencies) and reports 0.0.
        """
        self.observe_batch()
        if self._log is None:
            return []
        rows = self._read(-math.inf)
        requests, violations = rows.windows(np.array([float(now)]),
                                            self.window_seconds)
        attainment, burn = self._rates(requests, violations)
        seen = [j for j, done in enumerate(rows.key_done)
                if done.size and done[0] <= now]
        idents = [rows.keys[j] for j in seen]
        p99s = (self._p99s(rows, now, idents) if include_p99
                else [0.0] * len(idents))
        return [
            WindowStats(*ident, int(requests[j, 0]), int(violations[j, 0]),
                        float(attainment[j, 0]), p99, float(burn[j, 0]),
                        ident in self._firing)
            for ident, j, p99 in zip(idents, seen, p99s)
        ]

    def worst(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The highest burn rate and the lowest attainment over the windows
        at each of ``times`` (ascending) — :meth:`window_stats` reduced,
        for the sampler's ``slo.*`` columns."""
        times = np.asarray(times, dtype=float)
        if self._log is None or not times.size:
            return np.zeros(times.size), np.ones(times.size)
        rows = self._read(times[0] - self.window_seconds)
        attainment, burn = self._rates(
            *rows.windows(times, self.window_seconds)
        )
        return (burn.max(axis=0, initial=0.0),
                attainment.min(axis=0, initial=1.0))
