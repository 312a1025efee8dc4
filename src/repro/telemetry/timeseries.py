"""Time-series telemetry: periodic state sampling into columnar buffers.

The third telemetry pillar, next to spans (:mod:`~repro.telemetry.tracer`)
and instruments (:mod:`~repro.telemetry.metrics`), and the only one that
samples run state periodically: a :class:`StateSampler` polls registered
**probe callbacks** — queue depths, per-node occupancy and MPS co-run
level, container-pool sizes, breaker states, predicted vs. offered rate
— on a fixed simulated-time interval and stores each reading in one
numpy **column** of a table sized for the run.
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
  from — the lane's live nodes, its serving node — is read once per tick.
  Columns are preallocated from the run horizon, so steady-state
  sampling allocates nothing.
* **Read-time columns** (:meth:`StateSampler.read_time_probes`): state
  that can be recomputed for any past instant — the SLO windows, which
  are arithmetic over the batch log — is not read per tick at all.  Its
  reader takes the array of sample times and fills the columns in one
  pass when they are first read (the run's finalize does it); only with
  an observer attached (the ``--live`` dashboard) is it evaluated at each
  tick, at ``[now]``, so the observer sees the whole row.

A probe that raises is disabled after its first failure (its column holds
NaN from then on) and the error is recorded in ``meta["probe_errors"]``
— a broken probe must never kill the run it observes.  A read-time reader
that raises leaves NaN in every sample it was asked for.

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

from repro.simulator.engine import Simulator

__all__ = [
    "StateSampler",
    "TimeSeriesData",
    "read_timeseries",
    "TIMESERIES_SCHEMA",
]

#: Schema tag written into every exported bundle.
TIMESERIES_SCHEMA = "repro.timeseries/1"


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

    Probes are registered first; :meth:`start` then sizes the table from
    the run horizon, ``ceil(horizon / interval) + 1`` rows, which holds
    every tick ``Simulator.every(interval, until=horizon)`` can fire.

    Parameters
    ----------
    interval_seconds:
        Sampling cadence (must be positive).
    meta:
        Free-form bundle metadata (scheme, model, seed, hardware codes…)
        carried through export.

    Examples
    --------
    >>> sim = Simulator()
    >>> s = StateSampler(1.0)
    >>> s.probes(("x",), lambda: 42.0)
    >>> s.start(sim, horizon=2.0)
    >>> sim.run()
    >>> s.column("x").tolist()
    [42.0, 42.0]
    """

    def __init__(
        self,
        interval_seconds: float,
        *,
        meta: Optional[dict[str, Any]] = None,
    ) -> None:
        if not interval_seconds > 0:
            raise ValueError("sampling interval must be positive")
        self.interval_seconds = float(interval_seconds)
        self.meta: dict[str, Any] = dict(meta) if meta else {}
        #: Readers in registration order, keyed by the columns each
        #: fills: one float for a single column, else one per name;
        #: ``None`` for a read-time reader (:attr:`_at_read`).
        self._probes: dict[tuple[str, ...], Optional[Callable[[], Any]]] = {}
        #: Read-time readers, keyed by the columns each fills.
        self._at_read: dict[tuple[str, ...], Callable[[np.ndarray], Any]] = {}
        self._disabled: set[tuple[str, ...]] = set()
        #: Column names, in registration order (the probes' names laid
        #: end to end); column ``j`` of ``_table`` holds ``_names[j]``.
        self._names: list[str] = []
        self._times: Optional[np.ndarray] = None
        self._table: Optional[np.ndarray] = None
        self._n = 0  # samples taken
        self._filled = 0  # samples whose read-time columns are filled
        #: Called as ``observer(now, row)`` after every sample — the live
        #: dashboard's hook point.
        self.observers: list[Callable[[float, dict[str, float]], None]] = []

    # ------------------------------------------------------------------
    # Probe registration
    # ------------------------------------------------------------------
    def probes(self, names: tuple[str, ...],
               fn: Callable[[], Sequence[float]]) -> None:
        """Register (or rebind) one reader for several columns: ``fn()``
        returns one value per name, so state that several columns derive
        from is read once per sample.  A one-name reader returns a float.
        """
        names = tuple(names)
        self._register(names, fn)
        self._probes[names] = fn

    def read_time_probes(
        self, names: tuple[str, ...],
        fn: Callable[[np.ndarray], Sequence[np.ndarray]],
    ) -> None:
        """Register (or rebind) one reader evaluated when the columns are
        read instead of at each tick: ``fn(times)`` returns one array per
        name, each column's value at every instant of ``times``
        (ascending sample times).  For state that can be recomputed for
        any past instant; a tick then only stores its time.
        """
        names = tuple(names)
        self._register(names, fn)
        self._probes[names] = None
        self._at_read[names] = fn

    def _register(self, names: tuple[str, ...], fn: Callable) -> None:
        if not callable(fn):
            raise TypeError(f"probe {names[0]!r} must be callable")
        if self._table is not None:
            raise RuntimeError("probes are registered before start")
        if names not in self._probes:
            taken = set(names).intersection(self._names)
            if taken:
                raise ValueError(f"columns {sorted(taken)} already have a probe")
            self._names.extend(names)
        self._at_read.pop(names, None)
        self._disabled.discard(names)

    def probe_names(self) -> list[str]:
        return list(self._names)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, sim: Simulator, horizon: float, *,
              priority: int = 90) -> None:
        """Allocate the table and begin the sampling loop on ``sim``.

        The first sample lands at ``now + interval`` and the last at or
        before ``horizon``; a ``horizon`` shorter than one interval
        therefore yields zero samples (and an empty — but still
        exportable — bundle).
        """
        if self._table is not None:
            raise RuntimeError("sampler already started")
        rows = int(math.ceil(horizon / self.interval_seconds)) + 1
        self._times = np.full(rows, np.nan)
        self._table = np.full((rows, len(self._names)), np.nan)
        sim.every(self.interval_seconds, lambda: self.sample(sim.now),
                  until=horizon, priority=priority)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, now: float) -> None:
        """Take one sample row at simulated time ``now`` (handed to the
        :attr:`observers` as a ``{"t": now, name: value, ...}`` dict).

        Read-time columns are left to :meth:`fill`, unless observers are
        attached: then the row is filled at once, so they see all of it.
        """
        idx = self._n
        self._times[idx] = now
        values: list[float] = []
        disabled = self._disabled
        for names, fn in self._probes.items():
            if fn is None or (disabled and names in disabled):
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
                self._disable(names, exc)
                del values[n0:]
                values += [math.nan] * len(names)
        self._table[idx] = values
        self._n += 1
        if self.observers:
            self.fill()
            row = {"t": float(now)}
            row.update(zip(self._names, self._table[idx].tolist()))
            for observer in self.observers:
                observer(now, row)

    def fill(self) -> None:
        """Evaluate the read-time readers over the samples taken since the
        last fill, in one call each (every view fills first)."""
        lo, hi = self._filled, self._n
        if lo == hi:
            return
        self._filled = hi
        times = self._times[lo:hi].copy()
        for names, fn in self._at_read.items():
            if names in self._disabled:
                continue
            j = self._names.index(names[0])
            try:
                columns = fn(times)
                if len(columns) != len(names):
                    raise ValueError(f"probe returned {len(columns)} "
                                     f"columns for {len(names)}")
                for k, column in enumerate(columns):
                    self._table[lo:hi, j + k] = column
            except Exception as exc:  # noqa: BLE001 - probe isolation
                self._disable(names, exc)
                self._table[lo:hi, j:j + len(names)] = math.nan

    def _disable(self, names: tuple[str, ...], exc: Exception) -> None:
        self._disabled.add(names)
        errors = self.meta.setdefault("probe_errors", {})
        for name in names:
            errors[name] = repr(exc)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return self._n

    def times(self) -> np.ndarray:
        """Sample times, oldest first."""
        if self._times is None:
            return np.empty(0)
        return self._times[: self._n].copy()

    def column(self, name: str) -> np.ndarray:
        """One probe's readings, aligned with :meth:`times`."""
        if self._table is None:
            return np.empty(0)
        self.fill()
        return self._table[: self._n, self._names.index(name)].copy()

    def columns(self) -> dict[str, np.ndarray]:
        if self._table is None:
            return {}
        self.fill()
        return {name: self._table[: self._n, j].copy()
                for j, name in enumerate(self._names)}

    def last(self, name: str) -> float:
        """Most recent reading of ``name`` (NaN before the first sample)."""
        if self._n == 0 or name not in self._names:
            return math.nan
        self.fill()
        return float(self._table[self._n - 1, self._names.index(name)])

    def data(self) -> TimeSeriesData:
        meta = dict(self.meta)
        meta.setdefault("schema", TIMESERIES_SCHEMA)
        meta["interval_seconds"] = self.interval_seconds
        meta["n_samples"] = self.n_samples
        # Part of the repro.timeseries/1 bundle; the table never wraps.
        meta["wrapped"] = False
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
