"""Live run dashboard: TTY gauges fed by the time-series sampler.

:class:`LiveDashboard` is a :class:`~repro.telemetry.timeseries.
StateSampler` observer: every sampler tick hands it the fresh row, and it
repaints a compact panel — offered/predicted rate sparklines, the serving
hardware, queue depth, warm-pool size, and the SLO burn rate — so long
experiment runs show what the system looks like *while* it runs instead
of only after.

Two render modes, selected automatically:

* **TTY** — ANSI in-place repaint (cursor-up + clear-line), throttled by
  wall-clock so a fast simulation doesn't firehose the terminal.
* **non-TTY fallback** — one plain summary line every ``fallback_every``
  samples (CI logs, pipes); no ANSI escapes at all.

The dashboard never touches simulation state and never raises into the
run: a failed repaint (closed pipe, odd terminal) disables it quietly.
"""

from __future__ import annotations

import math
import time
from typing import Any, Optional, Sequence, TextIO

__all__ = ["LiveDashboard", "sparkline"]

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], peak: Optional[float] = None) -> str:
    """One block character per value, scaled so ``peak`` (default: the
    largest value) is a full block; a NaN value renders as a space."""
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return " " * len(values)
    top = max(peak if peak is not None else max(finite), 1e-12)
    full = len(_BLOCKS) - 1
    return "".join(
        " " if math.isnan(v)
        else _BLOCKS[max(0, min(full, int(round(v / top * full))))]
        for v in values
    )


def _spark(values: list[float], width: int) -> str:
    """Right-aligned sparkline of the most recent ``width`` readings."""
    return sparkline(
        [v for v in values[-width:] if not math.isnan(v)]
    ).rjust(width)


def _fmt(value: float, unit: str = "") -> str:
    if math.isnan(value):
        return "-"
    if abs(value) >= 100 or float(value).is_integer():
        return f"{value:.0f}{unit}"
    return f"{value:.2f}{unit}"


class LiveDashboard:
    """Renders sampler rows to a terminal (or a log-friendly fallback).

    Parameters
    ----------
    stream:
        Output stream; ``None`` binds ``sys.stdout`` lazily at first
        paint (so pytest's capture redirection is honoured).
    width:
        Sparkline width in characters.
    refresh_seconds:
        Minimum *wall-clock* spacing between TTY repaints.
    fallback_every:
        In non-TTY mode, emit one summary line every this many samples.
    hardware_names:
        Code -> spec-name mapping (from the sampler's
        ``meta["hardware_codes"]``) used to print the serving node.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        *,
        width: int = 48,
        refresh_seconds: float = 0.1,
        fallback_every: int = 10,
        hardware_names: Optional[dict[int, str]] = None,
    ) -> None:
        if width < 8:
            raise ValueError("dashboard width must be >= 8")
        if fallback_every < 1:
            raise ValueError("fallback_every must be >= 1")
        self._stream = stream
        self.width = int(width)
        self.refresh_seconds = float(refresh_seconds)
        self.fallback_every = int(fallback_every)
        self.hardware_names = dict(hardware_names or {})
        self._history: dict[str, list[float]] = {}
        self._painted_lines = 0
        self._last_paint = 0.0
        self._dead = False
        self.n_samples = 0

    # ------------------------------------------------------------------
    # Sampler observer protocol
    # ------------------------------------------------------------------
    def on_sample(self, now: float, row: dict[str, float]) -> None:
        """Receive one sampler row (the ``StateSampler.observers`` hook)."""
        if self._dead:
            return
        self.n_samples += 1
        for key in ("rate.offered", "rate.predicted", "queue.device",
                    "pool.warm_idle", "slo.burn_rate"):
            if key in row:
                self._history.setdefault(key, []).append(row[key])
        try:
            if self._is_tty():
                wall = time.monotonic()
                if wall - self._last_paint >= self.refresh_seconds:
                    self._paint(now, row)
                    self._last_paint = wall
            elif self.n_samples % self.fallback_every == 0:
                self._print_fallback_line(now, row)
        except (OSError, ValueError):  # closed pipe / broken terminal
            self._dead = True

    def finish(self, now: float, row: Optional[dict[str, float]] = None) -> None:
        """Final frame after the run: paint once more, then move past the
        panel so subsequent output starts on a fresh line."""
        if self._dead:
            return
        try:
            if self._is_tty():
                if row is not None or self._history:
                    self._paint(now, row or {})
                self._out().write("\n")
                self._out().flush()
            elif row is not None and self.n_samples % self.fallback_every:
                self._print_fallback_line(now, row)
        except (OSError, ValueError):
            self._dead = True

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _out(self) -> TextIO:
        if self._stream is not None:
            return self._stream
        import sys

        return sys.stdout

    def _is_tty(self) -> bool:
        out = self._out()
        isatty = getattr(out, "isatty", None)
        return bool(isatty()) if callable(isatty) else False

    def _hardware_label(self, row: dict[str, float]) -> str:
        code = row.get("hw.selected", math.nan)
        if code is None or (isinstance(code, float) and math.isnan(code)):
            return "(failover)"
        return self.hardware_names.get(int(code), f"hw#{int(code)}")

    def render_lines(self, now: float, row: dict[str, float]) -> list[str]:
        """The panel as plain lines (shared by the TTY painter and tests)."""
        w = self.width
        lines = [
            f"t={now:8.1f}s  serving {self._hardware_label(row)}",
        ]
        specs = [
            ("rate.offered", "offered rps"),
            ("rate.predicted", "predicted rps"),
            ("queue.device", "queued reqs"),
            ("pool.warm_idle", "warm pool"),
            ("slo.burn_rate", "slo burn"),
        ]
        for key, label in specs:
            hist = self._history.get(key)
            if not hist:
                continue
            lines.append(
                f"  {label:<13s} {_spark(hist, w)} {_fmt(hist[-1])}"
            )
        return lines

    def _paint(self, now: float, row: dict[str, float]) -> None:
        out = self._out()
        lines = self.render_lines(now, row)
        buf = []
        if self._painted_lines:
            buf.append(f"\x1b[{self._painted_lines}F")  # cursor to panel top
        for line in lines:
            buf.append("\x1b[2K" + line + "\n")
        out.write("".join(buf))
        out.flush()
        self._painted_lines = len(lines)

    def _print_fallback_line(self, now: float, row: dict[str, float]) -> None:
        out = self._out()
        parts = [f"[live] t={now:.1f}s", f"hw={self._hardware_label(row)}"]
        for key, label in (
            ("rate.offered", "rps"),
            ("queue.device", "queued"),
            ("pool.warm_idle", "warm"),
            ("slo.burn_rate", "burn"),
        ):
            if key in row:
                parts.append(f"{label}={_fmt(row[key])}")
        out.write("  ".join(parts) + "\n")
        out.flush()
