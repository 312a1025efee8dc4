"""Time-series telemetry: periodic state sampling into columnar buffers.

The third telemetry pillar, next to spans (:mod:`~repro.telemetry.tracer`)
and instruments (:mod:`~repro.telemetry.metrics`), and the only one that
samples run state periodically: a :class:`StateSampler` polls registered
**probe callbacks** — queue depths, per-node occupancy and MPS co-run
level, container-pool sizes, breaker states, predicted vs. offered rate
— on a fixed simulated-time interval and appends each reading into a
preallocated numpy **ring-buffer column**.
This is what lets a run answer "what did the system look like at *t*"
(the shape the paper's Figs. 9–13 reason about) instead of only "why did
request *r* miss its deadline".

Cost model
----------
* **Disabled** (the default): no sampler is constructed, no events are
  scheduled — the run executes the exact pre-sampler code path.
* **Enabled**: one simulator event per interval; each tick is one float
  store per column (probes read state that already exists — nothing is
  shadow-copied on the hot path).  One reader may fill several columns
  (:meth:`StateSampler.probes`), so state that several columns derive
  from — the lane's live nodes, the SLO windows — is read once per tick.
  Columns are preallocated from the run horizon, so steady-state
  sampling allocates nothing.

A probe that raises is disabled after its first failure (its column holds
NaN from then on) and the error is recorded in ``meta["probe_errors"]``
— a broken probe must never kill the run it observes.

Export / import
---------------
``save_npz`` writes the columns as a NumPy archive; ``save_jsonl``
writes a *columnar* JSONL bundle (one header object, then one line per
column).  :func:`read_timeseries` loads either format back into a
:class:`TimeSeriesData` that :mod:`repro.analysis.timeseries_report`
renders as aligned per-metric panels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.simulator.engine import RepeatingEvent, Simulator

__all__ = [
    "StateSampler",
    "TimeSeriesData",
    "read_timeseries",
    "TIMESERIES_SCHEMA",
]

#: Schema tag written into every exported bundle.
TIMESERIES_SCHEMA = "repro.timeseries/1"

#: Default ring capacity when no horizon is known at start time.
_DEFAULT_CAPACITY = 4096


@dataclass
class TimeSeriesData:
    """A loaded time-series bundle: aligned columns over one time axis."""

    times: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def names(self) -> list[str]:
        return list(self.columns)


class StateSampler:
    """Samples registered probes on a fixed simulated-time interval.

    Parameters
    ----------
    interval_seconds:
        Sampling cadence (must be positive).
    capacity:
        Ring-buffer length in samples.  Defaults to the run horizon at
        :meth:`start` (``ceil(horizon / interval) + 1``); when more
        samples than ``capacity`` arrive the buffer wraps and only the
        most recent ``capacity`` readings are retained.
    meta:
        Free-form bundle metadata (scheme, model, seed, hardware codes…)
        carried through export.

    Examples
    --------
    >>> s = StateSampler(1.0)
    >>> s.probe("x", lambda: 42.0)
    >>> s.sample(0.0)
    >>> float(s.column("x")[0])
    42.0
    """

    def __init__(
        self,
        interval_seconds: float,
        *,
        capacity: Optional[int] = None,
        meta: Optional[dict[str, Any]] = None,
    ) -> None:
        if not interval_seconds > 0:
            raise ValueError("sampling interval must be positive")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.interval_seconds = float(interval_seconds)
        self.meta: dict[str, Any] = dict(meta) if meta else {}
        self._capacity = capacity
        #: Readers in registration order, keyed by the columns each
        #: fills: one float for a single column, else one per name.
        self._probes: dict[tuple[str, ...], Callable[[], Any]] = {}
        self._disabled: set[tuple[str, ...]] = set()
        #: Column names, in registration order (the probes' names laid
        #: end to end); column ``j`` of ``_table`` holds ``_names[j]``.
        self._names: list[str] = []
        self._times: Optional[np.ndarray] = None
        self._table: Optional[np.ndarray] = None
        self._n = 0  # total samples ever taken (>= capacity once wrapped)
        self._handle: Optional[RepeatingEvent] = None
        #: Called as ``observer(now, row)`` after every sample — the live
        #: dashboard's hook point.
        self.observers: list[Callable[[float, dict[str, float]], None]] = []
        #: Optional :class:`~repro.telemetry.selfprof.RunProfiler` — when
        #: set, each sample brackets itself as a ``telemetry.sampler``
        #: frame so the sampler's own cost shows up in the phase tree.
        self.selfprof = None

    # ------------------------------------------------------------------
    # Probe registration
    # ------------------------------------------------------------------
    def probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register (or rebind) a named probe.

        Probes registered after sampling began get a new column whose
        already-elapsed rows are NaN.
        """
        self.probes((name,), fn)

    def probes(self, names: tuple[str, ...],
               fn: Callable[[], Sequence[float]]) -> None:
        """Register (or rebind) one reader for several columns: ``fn()``
        returns one value per name, so state that several columns derive
        from is read once per sample.  A one-name reader returns a float.
        """
        if not callable(fn):
            raise TypeError(f"probe {names[0]!r} must be callable")
        names = tuple(names)
        if names not in self._probes:
            taken = set(names).intersection(self._names)
            if taken:
                raise ValueError(f"columns {sorted(taken)} already have a probe")
            self._names.extend(names)
            if self._table is not None:
                self._table = np.hstack(
                    [self._table, np.full((self._capacity, len(names)), np.nan)]
                )
        self._probes[names] = fn
        self._disabled.discard(names)

    def probe_names(self) -> list[str]:
        return list(self._names)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(
        self,
        sim: Simulator,
        horizon: Optional[float] = None,
        *,
        priority: int = 90,
    ) -> RepeatingEvent:
        """Allocate the ring buffers and begin the sampling loop on ``sim``.

        The first sample lands at ``now + interval``; a ``horizon``
        shorter than one interval therefore yields zero samples (and an
        empty — but still exportable — bundle).
        """
        if self._handle is not None:
            raise RuntimeError("sampler already started")
        self._ensure_buffers(horizon)
        self._handle = sim.every(
            self.interval_seconds,
            lambda: self.sample(sim.now),
            until=horizon,
            priority=priority,
        )
        return self._handle

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()

    def _ensure_buffers(self, horizon: Optional[float] = None) -> None:
        if self._times is not None:
            return
        if self._capacity is None:
            if horizon is not None and horizon >= 0:
                self._capacity = int(math.ceil(horizon / self.interval_seconds)) + 1
            else:
                self._capacity = _DEFAULT_CAPACITY
        self._times = np.full(self._capacity, np.nan)
        self._table = np.full((self._capacity, len(self._names)), np.nan)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, now: float) -> None:
        """Take one sample row at simulated time ``now`` (handed to the
        :attr:`observers` as a ``{"t": now, name: value, ...}`` dict)."""
        prof = self.selfprof
        if prof is not None:
            prof.push("telemetry.sampler")
        self._ensure_buffers()
        idx = self._n % self._capacity
        self._times[idx] = now
        values: list[float] = []
        disabled = self._disabled
        for names, fn in self._probes.items():
            if disabled and names in disabled:
                values += [math.nan] * len(names)
                continue
            n0 = len(values)
            try:
                if len(names) == 1:
                    values.append(float(fn()))
                else:
                    values += map(float, fn())
                    if len(values) - n0 != len(names):
                        raise ValueError(f"probe returned {len(values) - n0} "
                                         f"values for {len(names)} columns")
            except Exception as exc:  # noqa: BLE001 - probe isolation
                disabled.add(names)
                errors = self.meta.setdefault("probe_errors", {})
                for name in names:
                    errors[name] = repr(exc)
                del values[n0:]
                values += [math.nan] * len(names)
        self._table[idx] = values
        self._n += 1
        if self.observers:
            row = {"t": float(now)}
            row.update(zip(self._names, values))
            for observer in self.observers:
                observer(now, row)
        if prof is not None:
            prof.pop()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Samples currently retained (<= capacity once wrapped)."""
        if self._capacity is None:
            return 0
        return min(self._n, self._capacity)

    @property
    def wrapped(self) -> bool:
        return self._capacity is not None and self._n > self._capacity

    def _unwrap(self, arr: np.ndarray) -> np.ndarray:
        if self._n <= self._capacity:
            return arr[: self._n].copy()
        idx = self._n % self._capacity
        return np.concatenate([arr[idx:], arr[:idx]])

    def times(self) -> np.ndarray:
        """Sample times, oldest first."""
        if self._times is None:
            return np.empty(0)
        return self._unwrap(self._times)

    def column(self, name: str) -> np.ndarray:
        """One probe's readings, aligned with :meth:`times`."""
        if self._times is None:
            return np.empty(0)
        return self._unwrap(self._table[:, self._names.index(name)])

    def columns(self) -> dict[str, np.ndarray]:
        if self._times is None:
            return {}
        return {name: self._unwrap(self._table[:, j])
                for j, name in enumerate(self._names)}

    def last(self, name: str) -> float:
        """Most recent reading of ``name`` (NaN before the first sample)."""
        if self._times is None or self._n == 0 or name not in self._names:
            return math.nan
        return float(self._table[(self._n - 1) % self._capacity,
                                 self._names.index(name)])

    def data(self) -> TimeSeriesData:
        meta = dict(self.meta)
        meta.setdefault("schema", TIMESERIES_SCHEMA)
        meta["interval_seconds"] = self.interval_seconds
        meta["n_samples"] = self.n_samples
        meta["wrapped"] = self.wrapped
        return TimeSeriesData(times=self.times(), columns=self.columns(), meta=meta)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def save_npz(self, path: str) -> int:
        """Write a compressed ``.npz`` bundle; returns columns written."""
        data = self.data()
        arrays: dict[str, np.ndarray] = {"t": data.times}
        for name, col in data.columns.items():
            arrays[f"col:{name}"] = col
        np.savez_compressed(
            path, __meta__=np.frombuffer(
                json.dumps(data.meta).encode("utf-8"), dtype=np.uint8
            ), **arrays,
        )
        return len(data.columns)

    def save_jsonl(self, path: str) -> int:
        """Write a columnar JSONL bundle (header line, then one line per
        column); returns columns written."""
        data = self.data()

        def tolist(arr: np.ndarray) -> list:
            return [None if math.isnan(v) else v for v in arr.tolist()]

        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "timeseries_meta", **data.meta}) + "\n")
            fh.write(
                json.dumps({"type": "timeseries_col", "name": "t",
                            "values": data.times.tolist()}) + "\n"
            )
            for name, col in data.columns.items():
                fh.write(
                    json.dumps({"type": "timeseries_col", "name": name,
                                "values": tolist(col)}) + "\n"
                )
        return len(data.columns)

    def save(self, path: str) -> int:
        """Dispatch on extension: ``.npz`` is binary, anything else JSONL."""
        if path.endswith(".npz"):
            return self.save_npz(path)
        return self.save_jsonl(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateSampler(interval={self.interval_seconds}, "
            f"probes={len(self._probes)}, samples={self.n_samples})"
        )


# ----------------------------------------------------------------------
# Import
# ----------------------------------------------------------------------
def _read_npz(path: str) -> TimeSeriesData:
    with np.load(path) as archive:
        meta: dict[str, Any] = {}
        if "__meta__" in archive.files:
            meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        times = archive["t"] if "t" in archive.files else np.empty(0)
        columns = {
            name[len("col:"):]: archive[name]
            for name in archive.files
            if name.startswith("col:")
        }
    return TimeSeriesData(times=np.asarray(times, dtype=float),
                          columns=columns, meta=meta)


def _read_jsonl(path: str) -> TimeSeriesData:
    meta: dict[str, Any] = {}
    times = np.empty(0)
    columns: dict[str, np.ndarray] = {}
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
            if kind == "timeseries_meta":
                meta = obj
            elif kind == "timeseries_col":
                values = np.array(
                    [math.nan if v is None else float(v)
                     for v in obj["values"]],
                    dtype=float,
                )
                if obj["name"] == "t":
                    times = values
                else:
                    columns[obj["name"]] = values
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown record type {kind!r}"
                )
    return TimeSeriesData(times=times, columns=columns, meta=meta)


def read_timeseries(path: str) -> TimeSeriesData:
    """Load a bundle written by :meth:`StateSampler.save` (either format).

    Raises ``ValueError`` when the file is neither a readable ``.npz``
    archive nor a columnar JSONL bundle, or when either format carries
    a schema other than :data:`TIMESERIES_SCHEMA`.
    """
    data = _read_npz(path) if path.endswith(".npz") else _read_jsonl(path)
    if data.meta.get("schema", TIMESERIES_SCHEMA) != TIMESERIES_SCHEMA:
        raise ValueError(
            f"{path}: unsupported time-series schema {data.meta.get('schema')!r}"
        )
    return data
