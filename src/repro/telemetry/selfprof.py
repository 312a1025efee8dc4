"""Self-profiling: hierarchical wall-clock attribution of the reproduction.

:class:`RunProfiler` answers "where does the reproduction's own
wall-clock go" with a **phase tree** over one
:class:`~repro.framework.system.ServerlessRun` (arrivals →
``choose_best_HW`` → batch formation → GPU interference math →
completions → autoscaler ticks → sampler/tracer overhead) with per-frame
counts, inclusive/exclusive wall seconds, and opt-in ``tracemalloc``
allocation deltas.

The profiler times the program from outside: while a ``with
RunProfiler():`` block lasts, every method in :data:`FRAMES` is wrapped
at class level to run inside a frame of the listed name (the originals
are restored on exit, also when the block raises).  The ``engine`` frame
also makes the profiler the simulator's dispatch profiler, so engine
callback sites become ``cb:<module>.<qualname>`` frames *inside* the
tree via :meth:`RunProfiler.push_site` / :meth:`RunProfiler.pop`.

Outside the block nothing from this module runs: the program carries no
profiler code, and profiled runs are bit-identical to unprofiled ones.
Inside it, a frame costs one wrapper call, two ``perf_counter()`` reads
and a dict lookup; frames aggregate in place (one node per distinct
path), so steady-state profiling allocates nothing.

Exports
-------
* :meth:`RunProfiler.rendered` — aligned terminal tree table.
* :meth:`RunProfiler.to_collapsed` — ``flamegraph.pl`` collapsed-stack
  text (``a;b;c <microseconds>``, one line per tree node).
* :meth:`RunProfiler.to_speedscope` — speedscope JSON
  (https://www.speedscope.app, "sampled" profile, unit seconds).
* :meth:`RunProfiler.as_dict` / :func:`load_profile` — the
  ``repro.selfprof/1`` JSON schema, diffable with :func:`diff_profiles`.

Because exclusive times telescope (every node's exclusive time is its
inclusive time minus its children's), the sum of all exclusive seconds
equals the root's inclusive seconds *exactly*; conservation against the
measured run wall-clock is therefore a single root-level comparison.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "FRAMES",
    "RunProfiler",
    "SELFPROF_SCHEMA",
    "SUBSYSTEMS",
    "load_profile",
    "diff_profiles",
    "render_profile_diff",
    "subsystem_of",
]

#: Schema tag written into every exported profile.
SELFPROF_SCHEMA = "repro.selfprof/1"

#: Fixed bucket set for :meth:`RunProfiler.subsystem_shares` — the keys
#: gated by ``benchmarks/BENCH_selfprof.json`` (every bucket is always
#: present, zero when unvisited, and the values sum to 1).
SUBSYSTEMS = (
    "framework",
    "simulator",
    "core",
    "telemetry",
    "engine",
    "harness",
    "other",
)

#: Phase-name prefix -> subsystem bucket for non-``cb:`` frames.
_PHASE_SUBSYSTEM = {
    "arrivals": "framework",
    "select": "core",
    "batch": "core",
    "autoscaler": "core",
    "resilience": "core",
    "gpu": "simulator",
    "telemetry": "telemetry",
    "engine": "engine",
    "run": "harness",
    "setup": "harness",
    "finalize": "harness",
}


#: ``(module, "Class.method", frame name)`` of every framed method.  A
#: method must be defined in the class's own body: an entry that no
#: longer resolves fails :meth:`RunProfiler.__enter__` by name.
FRAMES: tuple[tuple[str, str, str], ...] = (
    ("repro.framework.system", "ServerlessRun.execute", "run"),
    ("repro.framework.system", "ServerlessRun._setup", "setup"),
    ("repro.simulator.engine", "Simulator.run", "engine"),
    ("repro.framework.system", "ServerlessRun._finalize", "finalize"),
    ("repro.framework.system", "ServerlessRun._dispatch", "arrivals.window"),
    ("repro.core.paldia", "PaldiaPolicy.plan_window", "batch.plan"),
    ("repro.baselines.infless_llama", "InflessLlamaPolicy.plan_window", "batch.plan"),
    ("repro.baselines.molecule", "MoleculePolicy.plan_window", "batch.plan"),
    ("repro.baselines.offline_hybrid", "OfflineHybridPolicy.plan_window", "batch.plan"),
    ("repro.core.paldia", "PaldiaPolicy.desired_hardware", "select.choose_best_HW"),
    ("repro.baselines.infless_llama", "InflessLlamaPolicy.desired_hardware",
     "select.choose_best_HW"),
    ("repro.baselines.offline_hybrid", "OfflineHybridPolicy.desired_hardware",
     "select.choose_best_HW"),
    ("repro.simulator.gpu", "GPUDevice.submit", "gpu.submit"),
    ("repro.simulator.gpu", "GPUDevice._on_completion", "gpu.complete"),
    # The Equation-(1) solvers call the unframed ``_slowdown_raw``, so
    # only the device physics (and the seed reference path) land here.
    ("repro.simulator.interference", "InterferenceModel.slowdown", "gpu.interference"),
    ("repro.simulator.interference", "InterferenceModel.slowdown_array",
     "gpu.interference"),
    ("repro.core.autoscaler", "Autoscaler.predictive", "autoscaler.predictive"),
    ("repro.core.autoscaler", "Autoscaler.reap", "autoscaler.reap"),
    ("repro.core.resilience", "ResilienceController.plan_retry",
     "resilience.plan_retry"),
    ("repro.telemetry.timeseries", "StateSampler.sample", "telemetry.sampler"),
    ("repro.telemetry.slo_monitor", "SLOMonitor.sample", "telemetry.monitor"),
    ("repro.telemetry.costmeter", "CostBudgetMonitor.sample", "telemetry.cost"),
)


def subsystem_of(name: str) -> str:
    """Map one frame name to its :data:`SUBSYSTEMS` bucket.

    ``cb:`` engine-site frames bucket by their top-level ``repro``
    subpackage; phase frames bucket by their dotted prefix.
    """
    if name.startswith("cb:"):
        pkg = name[3:].split(".", 1)[0]
        return pkg if pkg in SUBSYSTEMS else "other"
    return _PHASE_SUBSYSTEM.get(name.split(".", 1)[0], "other")


class _Frame:
    """One node of the phase tree (aggregated over every entry)."""

    __slots__ = ("name", "count", "seconds", "alloc_bytes", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.seconds = 0.0
        self.alloc_bytes = 0
        self.children: dict[str, _Frame] = {}

    def exclusive(self) -> float:
        """Inclusive seconds minus the children's inclusive seconds."""
        return self.seconds - sum(c.seconds for c in self.children.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_Frame({self.name!r}, n={self.count}, "
            f"s={self.seconds:.6f}, children={len(self.children)})"
        )


class RunProfiler:
    """Hierarchical wall-clock profiler of the runs in its ``with`` block.

    Parameters
    ----------
    track_alloc:
        Also record net ``tracemalloc`` allocation deltas per frame.
        Starts ``tracemalloc`` if it is not already tracing (and
        :meth:`finish`, run on exit, stops it again then).  Considerably
        slows the run; wall times remain self-consistent but are not
        comparable to an untracked profile.
    meta:
        Free-form scenario metadata carried through :meth:`as_dict`.

    Examples
    --------
    >>> prof = RunProfiler()
    >>> prof.push("run")
    >>> prof.push("setup")
    >>> prof.pop()
    >>> prof.pop()
    >>> [f.name for f in prof.walk()]
    ['run', 'setup']
    """

    def __init__(
        self,
        *,
        track_alloc: bool = False,
        meta: Optional[dict[str, Any]] = None,
    ) -> None:
        self.meta: dict[str, Any] = dict(meta) if meta else {}
        self._root = _Frame("<run>")
        self._stack: list[_Frame] = [self._root]
        self._t0: list[float] = []
        #: ``(class, attribute, original)`` of each installed wrapper.
        self._restore: list[tuple[type, str, Any]] = []
        self.track_alloc = bool(track_alloc)
        self._alloc_t0: list[int] = []
        self._started_tracemalloc = False
        if self.track_alloc:
            import tracemalloc

            self._tracemalloc = tracemalloc
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True

    # ------------------------------------------------------------------
    # Recording (the hot path)
    # ------------------------------------------------------------------
    def push(self, name: str) -> None:
        """Enter a frame named ``name`` under the current stack top."""
        top = self._stack[-1]
        frame = top.children.get(name)
        if frame is None:
            frame = top.children[name] = _Frame(name)
        self._stack.append(frame)
        if self.track_alloc:
            self._alloc_t0.append(self._tracemalloc.get_traced_memory()[0])
        self._t0.append(perf_counter())

    def pop(self) -> None:
        """Exit the current frame, crediting its wall time (and, with
        ``track_alloc``, its net allocation delta)."""
        if len(self._stack) <= 1:
            raise RuntimeError("RunProfiler.pop() without a matching push()")
        dt = perf_counter() - self._t0.pop()
        frame = self._stack.pop()
        frame.count += 1
        frame.seconds += dt
        if self.track_alloc:
            frame.alloc_bytes += (
                self._tracemalloc.get_traced_memory()[0] - self._alloc_t0.pop()
            )

    def push_site(self, fn: Callable[[], None]) -> None:
        """Enter a frame for one engine callback dispatch.

        This is the :class:`~repro.simulator.engine.DispatchProfiler`
        hook: the engine pushes *before* invoking the callback (and
        calls :meth:`pop` after), so frames entered during the callback
        nest under the site frame.
        """
        qual = getattr(fn, "__qualname__", None)
        if qual is None:
            name = f"cb:{fn!r}"
        else:
            mod = getattr(fn, "__module__", "") or ""
            if mod.startswith("repro."):
                mod = mod[6:]
            name = f"cb:{mod}.{qual}" if mod else f"cb:{qual}"
        self.push(name)

    def finish(self) -> None:
        """Stop ``tracemalloc`` if this profiler started it."""
        if self._started_tracemalloc:
            self._tracemalloc.stop()
            self._started_tracemalloc = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "RunProfiler":
        if self._restore:
            raise RuntimeError("RunProfiler is already entered")
        # Resolve every entry before patching any, so a stale entry
        # leaves the program untouched.
        targets = []
        for module, attr, name in FRAMES:
            cls_name, _, method = attr.partition(".")
            try:
                cls = getattr(importlib.import_module(module), cls_name)
                targets.append((cls, method, cls.__dict__[method], name))
            except (ImportError, AttributeError, KeyError) as exc:
                raise LookupError(
                    f"self-profiler frame {name!r}: {module}.{attr} is not "
                    f"defined in its class body ({exc!r})"
                ) from None
        for cls, method, original, name in targets:
            wrap = self._engine_frame if name == "engine" else self._frame
            self._restore.append((cls, method, original))
            setattr(cls, method, wrap(name, original))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._restore:
            cls, method, original = self._restore.pop()
            setattr(cls, method, original)
        self.finish()

    def _frame(self, name: str, fn: Callable) -> Callable:
        push, pop = self.push, self.pop

        @functools.wraps(fn)
        def framed(*args: Any, **kwargs: Any) -> Any:
            push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        return framed

    def _engine_frame(self, name: str, fn: Callable) -> Callable:
        """The ``engine`` frame also makes this profiler the simulator's
        dispatch profiler for the call, unless one is attached already."""
        framed = self._frame(name, fn)

        @functools.wraps(fn)
        def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            if sim._profiler is not None:
                return framed(sim, *args, **kwargs)
            sim.set_profiler(self)
            try:
                return framed(sim, *args, **kwargs)
            finally:
                sim.set_profiler(None)

        return run

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def root(self) -> _Frame:
        return self._root

    @property
    def total_seconds(self) -> float:
        """Inclusive seconds across the top-level frames — equal, by the
        telescoping identity, to the sum of every frame's exclusive
        time."""
        return sum(c.seconds for c in self._root.children.values())

    def walk(self) -> Iterator[_Frame]:
        """Depth-first iteration over all frames (hottest child first)."""

        def rec(frame: _Frame) -> Iterator[_Frame]:
            for child in sorted(
                frame.children.values(), key=lambda f: -f.seconds
            ):
                yield child
                yield from rec(child)

        return rec(self._root)

    def rows(self) -> list[tuple[tuple[str, ...], int, int, float, float]]:
        """Flattened ``(path, depth, count, inclusive_s, exclusive_s)``
        rows in depth-first order (hottest sibling first)."""
        out: list[tuple[tuple[str, ...], int, int, float, float]] = []

        def rec(frame: _Frame, path: tuple[str, ...]) -> None:
            for child in sorted(
                frame.children.values(), key=lambda f: -f.seconds
            ):
                cpath = path + (child.name,)
                out.append(
                    (cpath, len(cpath) - 1, child.count, child.seconds,
                     child.exclusive())
                )
                rec(child, cpath)

        rec(self._root, ())
        return out

    def subsystem_shares(self) -> dict[str, float]:
        """Exclusive-time share per :data:`SUBSYSTEMS` bucket.

        Every bucket is present (0.0 when unvisited) and the values sum
        to 1 whenever any time was recorded.
        """
        total = self.total_seconds
        shares = {name: 0.0 for name in SUBSYSTEMS}
        if total <= 0:
            return shares
        for _path, _depth, _count, _incl, excl in self.rows():
            shares[subsystem_of(_path[-1])] += excl / total
        return shares

    def top_phases(self, n: int = 3) -> list[tuple[str, float]]:
        """The ``n`` hottest frames by exclusive share: ``(name,
        share)``, merged across tree positions."""
        total = self.total_seconds
        if total <= 0:
            return []
        by_name: dict[str, float] = {}
        for path, _depth, _count, _incl, excl in self.rows():
            by_name[path[-1]] = by_name.get(path[-1], 0.0) + excl
        ranked = sorted(by_name.items(), key=lambda kv: -kv[1])
        return [(name, s / total) for name, s in ranked[:n]]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _node_dict(self, frame: _Frame) -> dict[str, Any]:
        node: dict[str, Any] = {
            "name": frame.name,
            "count": frame.count,
            "seconds": frame.seconds,
        }
        if self.track_alloc:
            node["alloc_bytes"] = frame.alloc_bytes
        if frame.children:
            node["children"] = [
                self._node_dict(c)
                for c in sorted(
                    frame.children.values(), key=lambda f: -f.seconds
                )
            ]
        return node

    def as_dict(self) -> dict[str, Any]:
        """The ``repro.selfprof/1`` JSON snapshot."""
        return {
            "schema": SELFPROF_SCHEMA,
            "meta": dict(self.meta),
            "total_seconds": self.total_seconds,
            "track_alloc": self.track_alloc,
            "root": self._node_dict(self._root),
        }

    def save(self, path: str) -> None:
        """Write :meth:`as_dict` as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=1)
            fh.write("\n")

    def to_collapsed(self) -> str:
        """``flamegraph.pl``-compatible collapsed stacks.

        One line per tree node with positive exclusive time:
        ``frame;frame;frame <integer microseconds>``.
        """
        lines = []
        for path, _depth, _count, _incl, excl in self.rows():
            us = int(round(excl * 1e6))
            if us > 0:
                lines.append(f"{';'.join(path)} {us}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_speedscope(self, name: str = "repro run") -> dict[str, Any]:
        """A speedscope-format profile (https://www.speedscope.app).

        Emitted as a "sampled" profile: one weighted sample per tree
        node with positive exclusive time, whose stack is the node's
        path.  Weights are seconds, so speedscope's flame and sandwich
        views show the same inclusive/exclusive split as
        :meth:`rendered`.
        """
        frames: list[dict[str, str]] = []
        index: dict[str, int] = {}
        samples: list[list[int]] = []
        weights: list[float] = []

        def frame_index(frame_name: str) -> int:
            idx = index.get(frame_name)
            if idx is None:
                idx = index[frame_name] = len(frames)
                frames.append({"name": frame_name})
            return idx

        for path, _depth, _count, _incl, excl in self.rows():
            if excl > 0:
                samples.append([frame_index(p) for p in path])
                weights.append(excl)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": SELFPROF_SCHEMA,
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0.0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
        }

    def rendered(self, top: int = 40) -> str:
        """Aligned terminal tree table (hottest siblings first)."""
        from repro.analysis.report import render_table  # avoid import cycle

        rows = self.rows()
        total = self.total_seconds
        if not rows:
            return "self-profile: no frames recorded"
        headers = ["phase", "count", "incl_ms", "excl_ms", "excl_%"]
        if self.track_alloc:
            headers.append("alloc_kb")
        table_rows = []
        shown = rows[:top]
        for path, depth, count, incl, excl in shown:
            row: list[Any] = [
                "  " * depth + path[-1],
                count,
                round(incl * 1e3, 3),
                round(excl * 1e3, 3),
                round(100.0 * excl / total, 2) if total > 0 else 0.0,
            ]
            if self.track_alloc:
                frame = self._root
                for name in path:
                    frame = frame.children[name]
                row.append(round(frame.alloc_bytes / 1024.0, 1))
            table_rows.append(row)
        title = (
            f"self-profile: {total * 1e3:.1f} ms total, "
            f"{len(rows)} frames"
        )
        if len(rows) > top:
            title += f" (showing {top})"
        return render_table(headers, table_rows, title=title)


# ----------------------------------------------------------------------
# Loading and diffing saved profiles
# ----------------------------------------------------------------------
def load_profile(path: str) -> dict[str, Any]:
    """Load and validate a ``repro.selfprof/1`` JSON profile.

    Raises :class:`ValueError` unless every frame below ``root`` has a
    string ``name``, a numeric ``seconds``, an optional integer
    ``count`` and an optional list of ``children``.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("schema") != SELFPROF_SCHEMA:
        raise ValueError(
            f"{path}: not a {SELFPROF_SCHEMA} profile "
            f"(schema={data.get('schema') if isinstance(data, dict) else None!r})"
        )
    if not isinstance(data.get("root"), dict) or (
        type(data.get("total_seconds", 0.0)) not in (int, float)
    ):
        raise ValueError(f"{path}: no 'root' object or numeric total_seconds")
    _check_frames(data["root"], f"{path}: root")
    return data


def _check_frames(node: dict[str, Any], where: str) -> None:
    children = node.get("children", [])
    if not isinstance(children, list):
        raise ValueError(f"{where}: 'children' is not a list")
    for child in children:
        if not (
            isinstance(child, dict)
            and isinstance(child.get("name"), str)
            and type(child.get("seconds")) in (int, float)
            and type(child.get("count", 0)) is int
        ):
            raise ValueError(f"{where}: malformed frame {child!r:.80}")
        _check_frames(child, f"{where} > {child['name']}")


def _flatten(profile: dict[str, Any]) -> dict[tuple[str, ...], dict[str, float]]:
    """``path -> {count, inclusive, exclusive}`` for one saved profile."""
    out: dict[tuple[str, ...], dict[str, float]] = {}

    def rec(node: dict[str, Any], path: tuple[str, ...]) -> None:
        children = node.get("children", [])
        for child in children:
            cpath = path + (child["name"],)
            excl = child["seconds"] - sum(
                c["seconds"] for c in child.get("children", [])
            )
            out[cpath] = {
                "count": float(child.get("count", 0)),
                "inclusive": float(child["seconds"]),
                "exclusive": float(excl),
            }
            rec(child, cpath)

    rec(profile["root"], ())
    return out


def diff_profiles(
    baseline: dict[str, Any], candidate: dict[str, Any]
) -> list[dict[str, Any]]:
    """Per-phase deltas between two saved profiles.

    Returns one entry per path present in either profile, sorted by the
    magnitude of the exclusive-time delta (largest first).  Frames
    missing on one side contribute zero there, so additions and
    removals surface at full weight.
    """
    a = _flatten(baseline)
    b = _flatten(candidate)
    entries = []
    for path in sorted(set(a) | set(b)):
        fa = a.get(path, {"count": 0.0, "inclusive": 0.0, "exclusive": 0.0})
        fb = b.get(path, {"count": 0.0, "inclusive": 0.0, "exclusive": 0.0})
        entries.append(
            {
                "path": path,
                "baseline_exclusive": fa["exclusive"],
                "candidate_exclusive": fb["exclusive"],
                "delta_exclusive": fb["exclusive"] - fa["exclusive"],
                "baseline_count": int(fa["count"]),
                "candidate_count": int(fb["count"]),
            }
        )
    entries.sort(key=lambda e: -abs(e["delta_exclusive"]))
    return entries


def render_profile_diff(
    baseline: dict[str, Any],
    candidate: dict[str, Any],
    *,
    top: int = 25,
) -> str:
    """Human-readable per-phase diff of two saved profiles."""
    from repro.analysis.report import render_table  # avoid import cycle

    entries = diff_profiles(baseline, candidate)
    total_a = float(baseline.get("total_seconds", 0.0))
    total_b = float(candidate.get("total_seconds", 0.0))
    rows = []
    for e in entries[:top]:
        base_ms = e["baseline_exclusive"] * 1e3
        cand_ms = e["candidate_exclusive"] * 1e3
        pct = (
            100.0 * e["delta_exclusive"] / e["baseline_exclusive"]
            if e["baseline_exclusive"] > 0
            else float("inf") if e["delta_exclusive"] > 0 else 0.0
        )
        rows.append(
            [
                ";".join(e["path"]),
                round(base_ms, 3),
                round(cand_ms, 3),
                round(cand_ms - base_ms, 3),
                "new" if e["baseline_exclusive"] == 0 else f"{pct:+.1f}%",
            ]
        )
    delta_total = total_b - total_a
    title = (
        f"profile diff: total {total_a * 1e3:.1f} ms -> "
        f"{total_b * 1e3:.1f} ms ({delta_total * 1e3:+.1f} ms)"
    )
    return render_table(
        ["phase", "base_ms", "cand_ms", "delta_ms", "delta"],
        rows,
        title=title,
    )
