"""Live SLO burn-rate monitoring: sliding-window attainment and alerts.

The tracer records *what happened*; this module watches it *while it
happens*.  A :class:`SLOMonitor` keeps one sliding window (default 30
sim-seconds) of request completions per **model** and per **hardware**
track, and every sample tick evaluates windowed attainment, p99, and the
SRE-style **burn rate** — the ratio of the window's violation rate to the
SLO's allowed error budget (``1 - compliance_goal``).  A burn rate of 1.0
spends the error budget exactly as fast as the SLO allows; 2.0 spends it
twice as fast.

When a window's burn rate crosses ``burn_rate_threshold`` the monitor
emits a ``slo_alert`` trace event (``state="firing"``), and a matching
``state="resolved"`` event when it drops back below — so autoscaler or
selector misbehaviour is visible *in the trace timeline* next to the
decisions that caused it, not only in a post-mortem aggregate.  Alerts
are edge-triggered per key: a window that stays bad fires once.

The monitor is a pure observer: it never touches the control plane, and
it only exists when tracing is enabled (``RunObservers.for_run``
constructs it), so a run without it is bit-identical.  It is not
called per batch either: every evaluation first reads the batches the
lane's batch log (:class:`~repro.simulator.metrics.BatchLog`) completed
since the previous one, so a tick costs a few array operations whatever
the traffic.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional

import numpy as np

from repro.simulator.metrics import BatchLog
from repro.telemetry.tracer import Tracer

__all__ = ["SLOMonitor", "WindowStats"]


class _Window:
    """One (scope, key) sliding window's request and violation totals,
    kept incrementally as batches enter and leave it."""

    __slots__ = ("n", "viol")

    def __init__(self) -> None:
        self.n = 0
        self.viol = 0


class WindowStats(NamedTuple):
    """One (scope, key) window's state at a sample instant (a tuple, so
    the per-tick evaluation stays cheap)."""

    scope: str  # "model" | "hardware"
    key: str
    n_requests: int
    n_violations: int
    attainment: float  # fraction of windowed requests meeting the SLO
    p99_seconds: float
    burn_rate: float
    firing: bool


class SLOMonitor:
    """Sliding-window SLO attainment tracker with burn-rate alerts.

    Parameters
    ----------
    slo_seconds:
        The per-request deadline attainment is judged against.
    tracer:
        Sink for ``slo_alert`` events (and nothing else).
    window_seconds:
        Sliding-window width in sim-seconds.
    compliance_goal:
        Target attainment (the paper's >= 99%); the error budget is
        ``1 - compliance_goal``.
    burn_rate_threshold:
        Fire when the windowed violation rate exceeds this multiple of
        the error budget.
    min_window_requests:
        Windows with fewer requests never fire (a single violating
        request in a near-idle window is noise, not a burn).
    """

    def __init__(
        self,
        slo_seconds: float,
        tracer: Optional[Tracer] = None,
        window_seconds: float = 30.0,
        compliance_goal: float = 0.99,
        burn_rate_threshold: float = 2.0,
        min_window_requests: int = 20,
    ) -> None:
        if slo_seconds <= 0:
            raise ValueError("slo_seconds must be positive")
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if not 0 < compliance_goal < 1:
            raise ValueError("compliance_goal must be in (0, 1)")
        self.slo_seconds = float(slo_seconds)
        self.tracer = tracer
        self.window_seconds = float(window_seconds)
        self.compliance_goal = float(compliance_goal)
        self.burn_rate_threshold = float(burn_rate_threshold)
        self.min_window_requests = int(min_window_requests)
        self._windows: dict[tuple[str, str], _Window] = {}
        self._firing: set[tuple[str, str]] = set()
        self.alerts_emitted = 0
        #: The lane's batch log, read forward from row ``_read``.
        self._log: Optional[BatchLog] = None
        self._read = 0
        #: Per scope, the window of each of the log's name codes.
        self._by_code: dict[str, list[_Window]] = {"model": [], "hardware": []}
        #: The ingested batches still inside the window, oldest first:
        #: (completed_at, model window, hardware window, requests,
        #: violations).  They are the log's rows just before ``_read``.
        self._entries: deque = deque()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def attach(self, log: BatchLog) -> None:
        """Watch the batches a lane appends to ``log``."""
        if self._log is not None and self._log is not log:
            raise ValueError("an SLO monitor watches one lane's batch log")
        self._log = log

    def observe_batch(self) -> None:
        """Ingest the batches the attached log completed since the last
        read, each under both its model and its hardware window.

        Called on every evaluation (:meth:`window_stats`), so the windows
        hold exactly the batches completed by then."""
        log = self._log
        if log is None or len(log) == self._read:
            return
        lo, self._read = self._read, len(log)
        by_model = self._windows_of("model")
        by_hardware = self._windows_of("hardware")
        entries = self._entries
        rows = log.view(lo, self._read)
        first = rows["first"]
        # Requests over the SLO, summed per batch (no batch is empty).
        violations = np.add.reduceat(rows.latencies() > self.slo_seconds,
                                     first - first[0], dtype=np.int64)
        for done, model, hardware, n, viol in zip(
            rows["completed_at"].tolist(), rows["model"].tolist(),
            rows["hardware"].tolist(), rows["size"].tolist(),
            violations.tolist(),
        ):
            mw, hw = by_model[model], by_hardware[hardware]
            mw.n += n
            mw.viol += viol
            hw.n += n
            hw.viol += viol
            entries.append((done, mw, hw, n, viol))

    def _key(self, scope: str, name) -> str:
        return (name or "?") if scope == "hardware" else name

    def _windows_of(self, scope: str) -> list[_Window]:
        """The window of each name code of ``scope`` in the log."""
        known, names = self._by_code[scope], self._log.names[scope]
        while len(known) < len(names):
            known.append(self._windows.setdefault(
                (scope, self._key(scope, names[len(known)])), _Window()
            ))
        return known

    def _evict_before(self, cutoff: float) -> None:
        entries = self._entries
        while entries and entries[0][0] < cutoff:
            _, mw, hw, n, viol = entries.popleft()
            mw.n -= n
            mw.viol -= viol
            hw.n -= n
            hw.viol -= viol

    def _p99s(self, idents: list[tuple[str, str]]) -> list[float]:
        """Each (scope, key) window's latency p99, from the log rows still
        inside the windows (their latencies computed once)."""
        if not self._entries:
            return [0.0] * len(idents)
        rows = self._log.view(self._read - len(self._entries), self._read)
        latencies = rows.latencies()
        out = []
        for scope, key in idents:
            in_window = np.array([self._key(scope, name) == key
                                  for name in rows.names[scope]])
            mask = in_window[rows[scope]]
            out.append(float(np.percentile(
                latencies[np.repeat(mask, rows["size"])], 99.0
            )) if mask.any() else 0.0)
        return out

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def window_stats(
        self, now: float, include_p99: bool = True
    ) -> list[WindowStats]:
        """Evaluate every window at ``now`` (evicting expired entries).

        ``include_p99=False`` skips the latency-percentile computation
        (the only non-O(1) part) and reports 0.0.
        """
        self.observe_batch()
        self._evict_before(now - self.window_seconds)
        windows = sorted(self._windows.items())
        p99s = (self._p99s([ident for ident, _ in windows]) if include_p99
                else [0.0] * len(windows))
        out: list[WindowStats] = []
        for ((scope, key), window), p99 in zip(windows, p99s):
            attainment, burn = self._rates(window)
            out.append(WindowStats(
                scope, key, window.n, window.viol, attainment, p99, burn,
                (scope, key) in self._firing,
            ))
        return out

    def worst(self, now: float) -> tuple[float, float]:
        """The highest burn rate and lowest attainment over the windows
        at ``now`` — :meth:`window_stats` reduced, for the per-tick
        time-series columns."""
        self.observe_batch()
        self._evict_before(now - self.window_seconds)
        worst_burn, worst_attainment = 0.0, 1.0
        for window in self._windows.values():
            attainment, burn = self._rates(window)
            worst_burn = max(worst_burn, burn)
            worst_attainment = min(worst_attainment, attainment)
        return worst_burn, worst_attainment

    def _rates(self, window: _Window) -> tuple[float, float]:
        """``(attainment, burn rate)`` of one window."""
        n, n_viol = window.n, window.viol
        if not n:
            return 1.0, 0.0
        return 1.0 - n_viol / n, (n_viol / n) / (1.0 - self.compliance_goal)

    def sample(self, now: float) -> list[WindowStats]:
        """One monitor tick: emit the alert transitions at ``now``.

        ``slo_alert`` events are edge-triggered: ``firing`` on the first
        bad sample, ``resolved`` on the first good one after.  Returns
        the stats of the windows whose alert state flipped, in
        (scope, key) order.  A tick without a flip builds no stats; one
        with flips reads the windows' latencies once, for the exact p99
        each flip's event carries.
        """
        self.observe_batch()
        self._evict_before(now - self.window_seconds)
        flips = []
        for ident, window in self._windows.items():
            fire = (window.n >= self.min_window_requests
                    and self._rates(window)[1] >= self.burn_rate_threshold)
            if fire != (ident in self._firing):
                flips.append((ident, window, fire))
        if not flips:
            return []
        flips.sort(key=lambda flip: flip[0])
        out = []
        for ((scope, key), window, fire), p99 in zip(
            flips, self._p99s([ident for ident, _, _ in flips])
        ):
            if fire:
                self._firing.add((scope, key))
            else:
                self._firing.discard((scope, key))
            attainment, burn = self._rates(window)
            stats = WindowStats(scope, key, window.n, window.viol,
                                attainment, p99, burn, fire)
            self._emit(now, stats, "firing" if fire else "resolved")
            out.append(stats)
        return out

    def _emit(self, now: float, s: WindowStats, state: str) -> None:
        self.alerts_emitted += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "slo_alert",
                now,
                cat="alert",
                track="slo-monitor",
                state=state,
                scope=s.scope,
                key=s.key,
                attainment=s.attainment,
                p99_seconds=s.p99_seconds,
                burn_rate=s.burn_rate,
                burn_rate_threshold=self.burn_rate_threshold,
                window_seconds=self.window_seconds,
                n_requests=s.n_requests,
                n_violations=s.n_violations,
                slo_seconds=self.slo_seconds,
            )
