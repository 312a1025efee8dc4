"""Cross-run ledger: a SQLite record of every run's headline metrics.

Time-series bundles answer "what did *this* run look like over time";
the ledger answers "how does this run compare to every run before it".
A row is the run's identity (time, git SHA, scheme, model, trace, seed,
duration) as columns, plus one JSON ``metrics`` payload holding what
was measured: p99, cost, compliance, cold starts, cost buckets, wall
clock, the worst traced request, caller counters.  A new metric is one
more payload key, with no schema change.  :meth:`RunLedger.compare`
diffs two rows with regression flags, which the CI regression workflow
(``docs/PERFORMANCE.md``) keys off.

The store is one SQLite file (stdlib ``sqlite3``, safe for concurrent
readers).  Files from a newer schema are refused.  Files from schemas
1-5, which kept one column per metric, are converted in place on open
in one transaction: run ids are kept, and every non-NULL metric column
plus the keys of the old ``extra_json`` column move into the payload.
"""

from __future__ import annotations

import datetime as _dt
import json
import logging
import sqlite3
import subprocess
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.telemetry._warn_once import WarnOnce

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.framework.system import RunResult

logger = logging.getLogger(__name__)

__all__ = [
    "RunLedger", "RunRecord", "LedgerComparison", "MetricDelta", "git_sha",
    "DEFAULT_LEDGER_PATH",
]

#: Default on-disk location (gitignored, like the result cache).
DEFAULT_LEDGER_PATH = ".repro-ledger.sqlite"

#: v1-v5 kept one column per metric; v6 keeps identity columns plus one
#: JSON metrics payload.
SCHEMA_VERSION = 6

#: The identity columns, in table order after ``id``.
_IDENTITY = (
    "created_utc", "git_sha", "scheme", "model", "trace", "seed", "duration",
)
_COLUMNS = ", ".join(("id",) + _IDENTITY + ("metrics",))

_META_DDL = (
    "CREATE TABLE IF NOT EXISTS ledger_meta "
    "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
)

_RUNS_DDL = """
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    created_utc TEXT NOT NULL,
    git_sha     TEXT,
    scheme      TEXT NOT NULL,
    model       TEXT NOT NULL,
    trace       TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    duration    REAL NOT NULL,
    metrics     TEXT NOT NULL DEFAULT '{}'
)
"""

#: What a metric missing from a row's payload reads as, where that is
#: not 0: the column defaults of schemas 1-5.
_MISSING = {"worst_request_id": -1, "top_phase": None,
            "worst_request_phase": None}
_UNSET = object()

#: What :meth:`RunLedger.compare` diffs, in report order:
#: ``(name, higher_is_worse, tolerance kind, gate)``.  ``rate`` metrics
#: in ``[0, 1]`` take the absolute tolerance, ``scalar`` the relative
#: one; ``dollars`` floor it at $5e-4 so rounding can't flap, and noisy
#: host ``wall`` clock at 25% and 0.5 s.  A gated metric is compared only
#: when both rows carry a positive gate value (a row without the cost
#: meter or a wall-clock reading has 0 there).
_COMPARED = (
    ("slo_compliance", False, "rate", None),
    ("violation_rate", True, "rate", None),
    ("p50_seconds", True, "scalar", None),
    ("p99_seconds", True, "scalar", None),
    ("total_cost", True, "scalar", None),
    ("cold_starts", True, "scalar", None),
    ("n_switches", True, "scalar", None),
    ("cost_per_1k_requests", True, "dollars", "cost_per_1k_requests"),
    ("idle_cost", True, "dollars", "cost_per_1k_requests"),
    ("coldstart_cost", True, "dollars", "cost_per_1k_requests"),
    ("wall_seconds", True, "wall", "wall_seconds"),
)


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The current short commit SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5.0, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _result_metrics(result: "RunResult") -> dict[str, Any]:
    """Every ledger metric a run result carries by itself."""
    offered = result.offered_requests
    violations = offered - round(result.slo_compliance * offered)
    metrics: dict[str, Any] = {
        "slo_seconds": float(result.slo_seconds),
        "offered": int(offered),
        "completed": int(result.completed_requests),
        "slo_compliance": float(result.slo_compliance),
        "violation_rate": violations / offered if offered else 0.0,
        "p50_seconds": float(result.p50_seconds),
        "p99_seconds": float(result.p99_seconds),
        "total_cost": float(result.total_cost),
        "cold_starts": int(result.cold_starts),
        "n_switches": int(result.n_switches),
        "wall_seconds": float(result.wall_seconds),
        # Dollars per 1000 offered requests: the headline efficiency
        # scalar, and the gate for the cost-bucket deltas.
        "cost_per_1k_requests": (
            result.total_cost / offered * 1000.0 if offered else 0.0
        ),
    }
    bd = result.cost_breakdown
    if bd is not None:
        metrics["idle_cost"] = bd.idle_dollars
        metrics["coldstart_cost"] = bd.coldstart_dollars
    worst = result.reqtrace.worst(1) if result.reqtrace is not None else []
    if worst:
        metrics["worst_request_id"] = worst[0].rid
        metrics["worst_request_latency"] = worst[0].latency
        metrics["worst_request_phase"] = worst[0].dominant_phase
    return metrics


@dataclass(frozen=True)
class RunRecord:
    """One persisted run: its identity plus the metrics payload."""

    run_id: int
    created_utc: str
    git_sha: Optional[str]
    scheme: str
    model: str
    trace: str
    seed: int
    duration: float
    metrics: dict[str, Any] = field(default_factory=dict)

    def metric(self, name: str, default: Any = _UNSET) -> Any:
        """The payload value of ``name``.  A row without it reads as
        ``default`` when given, else as the column default schemas 1-5
        used: 0, ``-1`` for ``worst_request_id`` and ``None`` for the
        phase names."""
        if name in self.metrics:
            return self.metrics[name]
        return _MISSING.get(name, 0) if default is _UNSET else default


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric: baseline -> candidate, with flags set when
    the candidate worsened (``regressed``) or bettered (``improved``) by
    more than the metric's tolerance."""

    name: str
    baseline: float
    candidate: float
    higher_is_worse: bool
    regressed: bool
    improved: bool

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline


@dataclass(frozen=True)
class LedgerComparison:
    """The diff of two ledger rows."""

    baseline: RunRecord
    candidate: RunRecord
    deltas: list[MetricDelta]
    comparable: bool  # same scheme+model+trace+seed+duration

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)


class RunLedger:
    """SQLite-backed cross-run metric store.

    Raises :class:`ValueError` naming ``path`` when the file cannot be
    used as a ledger: not a database, not openable (a directory), or
    written by a newer schema.

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "ledger.sqlite")
    >>> ledger = RunLedger(path)
    >>> ledger.list_runs()
    []
    """

    def __init__(self, path: str = DEFAULT_LEDGER_PATH) -> None:
        self.path = path
        self._warn_write = WarnOnce(
            logger,
            "ledger write to %s failed (%s); the run completed but is "
            "not recorded (further ledger write errors are silenced)",
        )
        try:
            self._conn = sqlite3.connect(path)
            try:
                self._conn.row_factory = sqlite3.Row
                self._open()
            except BaseException:
                self._conn.close()
                raise
        except sqlite3.Error as exc:
            raise ValueError(
                f"{path} is not a usable run ledger ({exc})"
            ) from exc

    def _open(self) -> None:
        """Create, check, or convert the file, all in one transaction.

        ``executescript`` would commit the open transaction first, so
        every statement here goes through ``execute``.
        """
        conn = self._conn
        with conn:
            conn.execute("BEGIN")
            conn.execute(_META_DDL)
            row = conn.execute(
                "SELECT value FROM ledger_meta WHERE key = 'schema_version'"
            ).fetchone()
            version = int(row["value"]) if row is not None else 0
            if version > SCHEMA_VERSION:
                raise ValueError(
                    f"{self.path} was written by ledger schema {version}; "
                    f"this build understands <= {SCHEMA_VERSION}"
                )
            if 0 < version < SCHEMA_VERSION:
                self._convert()
            conn.execute(_RUNS_DDL)
            if version < SCHEMA_VERSION:
                conn.execute(
                    "INSERT OR REPLACE INTO ledger_meta (key, value) "
                    "VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )

    def _convert(self) -> None:
        """Rebuild a schema 1-5 ``runs`` table (one column per metric) as
        identity columns plus the payload, keeping run ids."""
        old = self._conn.execute("SELECT * FROM runs").fetchall()
        self._conn.execute("DROP TABLE runs")
        self._conn.execute(_RUNS_DDL)
        for row in old:
            values = dict(row)
            identity = [values.pop(k) for k in ("id",) + _IDENTITY]
            metrics = json.loads(values.pop("extra_json", None) or "{}")
            metrics.update(
                (k, v) for k, v in values.items() if v is not None
            )
            self._insert(identity, metrics)

    def _insert(self, identity: list[Any], metrics: dict[str, Any]) -> int:
        cur = self._conn.execute(
            f"INSERT INTO runs ({_COLUMNS}) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (*identity, json.dumps(metrics)),
        )
        return int(cur.lastrowid)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def record(self, result: "RunResult", *, trace: str, seed: int,
               sha: Optional[str] = None, **metrics: Any) -> int:
        """Persist one run; returns the new row id, or ``-1`` when the
        write itself failed (see below).

        Every metric the result carries is read off it, including the
        cost-meter buckets and the worst traced request.  ``metrics``
        adds what the result lacks (``top_phase``/``top_phase_share``
        from a self-profile, cache and executor counters, any new
        metric) and wins over a same-named result metric.

        A failing write (read-only file, full disk, locked database)
        degrades the ledger instead of aborting the run that produced
        the result: the error is warned once per ledger and ``-1`` is
        returned.
        """
        payload = _result_metrics(result)
        payload.update(metrics)
        created = _dt.datetime.now(_dt.timezone.utc).isoformat(
            timespec="seconds"
        )
        identity = [
            None, created, sha if sha is not None else git_sha(),
            result.scheme, result.model, trace, int(seed),
            float(result.duration),
        ]
        try:
            with self._conn:
                return self._insert(identity, payload)
        except (sqlite3.OperationalError, OSError) as exc:
            self._warn_write.note(self.path, exc)
            return -1

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @staticmethod
    def _to_record(row: sqlite3.Row) -> RunRecord:
        *identity, metrics = tuple(row)
        return RunRecord(*identity, metrics=json.loads(metrics))

    def list_runs(self, limit: Optional[int] = None) -> list[RunRecord]:
        """All runs, newest first."""
        sql = f"SELECT {_COLUMNS} FROM runs ORDER BY id DESC"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [self._to_record(r) for r in self._conn.execute(sql)]

    def get(self, run_id: int) -> RunRecord:
        row = self._conn.execute(
            f"SELECT {_COLUMNS} FROM runs WHERE id = ?", (int(run_id),)
        ).fetchone()
        if row is None:
            raise KeyError(f"no run #{run_id} in {self.path}")
        return self._to_record(row)

    def __len__(self) -> int:
        return int(
            self._conn.execute("SELECT COUNT(*) AS n FROM runs").fetchone()["n"]
        )

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def compare(self, baseline_id: int, candidate_id: int, *,
                rel_tolerance: float = 0.05,
                abs_tolerance: float = 0.005) -> LedgerComparison:
        """Diff two runs with regression flags.

        A scalar metric (p99, cost, cold starts) regresses when the
        candidate worsens by more than ``rel_tolerance`` relative to the
        baseline; a rate metric in ``[0, 1]`` (compliance, violation
        rate) regresses when it worsens by more than ``abs_tolerance``
        absolute.  The same thresholds, mirrored, set ``improved``.
        Dollar and wall-clock metrics widen these (see ``_COMPARED``).
        """
        base = self.get(baseline_id)
        cand = self.get(candidate_id)
        deltas = []
        for name, higher_is_worse, kind, gate in _COMPARED:
            if gate is not None and not (
                base.metric(gate) > 0 and cand.metric(gate) > 0
            ):
                continue
            b, c = float(base.metric(name)), float(cand.metric(name))
            span = {
                "rate": abs_tolerance,
                "scalar": abs(b) * rel_tolerance,
                "dollars": max(abs(b) * rel_tolerance, 5e-4),
                "wall": max(b * max(rel_tolerance, 0.25), 0.5),
            }[kind]
            worse = (c - b) if higher_is_worse else (b - c)
            deltas.append(MetricDelta(
                name, b, c, higher_is_worse,
                regressed=worse > span, improved=worse < -span,
            ))
        comparable = all(
            getattr(base, k) == getattr(cand, k)
            for k in ("scheme", "model", "trace", "seed", "duration")
        )
        return LedgerComparison(
            baseline=base, candidate=cand, deltas=deltas, comparable=comparable
        )


# ----------------------------------------------------------------------
# Terminal rendering (used by the ``runs`` CLI)
# ----------------------------------------------------------------------
def render_run_rows(records: list[RunRecord]) -> list[list[Any]]:
    """Rows for ``render_table`` (newest first, as listed)."""
    rows = []
    for r in records:
        wall = r.metric("wall_seconds")
        rows.append([
            r.run_id, r.created_utc.replace("+00:00", "Z"), r.git_sha or "-",
            r.scheme, r.model, r.trace, r.seed,
            round(100 * r.metric("slo_compliance"), 2),
            round(r.metric("p99_seconds") * 1e3, 1),
            round(r.metric("total_cost"), 4),
            round(wall, 2) if wall else "-",
        ])
    return rows


def render_comparison(cmp: LedgerComparison) -> str:
    """Human-readable diff of two ledger rows."""
    b, c = cmp.baseline, cmp.candidate
    lines = [
        f"baseline  #{b.run_id}  {b.scheme}/{b.model}/{b.trace} "
        f"seed {b.seed}  sha {b.git_sha or '-'}  ({b.created_utc})",
        f"candidate #{c.run_id}  {c.scheme}/{c.model}/{c.trace} "
        f"seed {c.seed}  sha {c.git_sha or '-'}  ({c.created_utc})",
    ]
    if not cmp.comparable:
        lines.append(
            "note: runs differ in scheme/model/trace/seed/duration — "
            "deltas mix configuration and code effects"
        )
    lines.append("")
    name_w = max(len(d.name) for d in cmp.deltas)
    for d in cmp.deltas:
        flag = "REGRESSED" if d.regressed else ("improved" if d.improved else "")
        arrow = "^" if d.delta > 0 else ("v" if d.delta < 0 else "=")
        lines.append(
            f"  {d.name:<{name_w}s}  {d.baseline:>12.6g} -> "
            f"{d.candidate:>12.6g}  {arrow} {d.delta:+.6g}  {flag}"
        )
    lines.append("")
    if cmp.regressed:
        names = ", ".join(d.name for d in cmp.regressions)
        lines.append(f"verdict: REGRESSED ({names})")
    else:
        lines.append("verdict: no regressions")
    return "\n".join(lines)
