"""Experiment orchestration: run (scheme x model x repetition) matrices.

Each cell is an independent :class:`~repro.framework.system.ServerlessRun`
(seeded per cell, so results are reproducible regardless of scheduling
order).  Repetitions are averaged with the paper's 2.5-sigma outlier
rule.

:func:`run_matrix` is a thin planner: it expands the matrix into
:class:`CellSpec` cells, replays whatever the content-addressed
:class:`~repro.experiments.cache.ResultCache` already holds, and hands
the remainder to a pluggable :class:`~repro.experiments.executors.
Executor` (serial, local process pool, or a chaos-injecting wrapper —
see ``docs/EXECUTION.md``).  The executor applies the optional
:class:`~repro.experiments.executors.CellFaultPolicy` — per-cell retry
with decorrelated-jitter backoff, wall-clock timeouts, and
crash/timeout/exception classification — so a single worker crash or
straggler costs one cell one attempt, not the whole sweep.

Durability
----------
The result cache is a sweep's only record: each computed cell is
stored as soon as its outcome arrives, written atomically, so an
interrupted sweep (SIGINT, SIGKILL, OOM) is resumed by running the same
command again — finished cells replay from the cache, only the rest
compute.

Failure policy
--------------
``on_cell_failure="fail"`` (default) raises
:class:`~repro.experiments.executors.CellExecutionError` after the
stream drains; ``"skip"`` records the holes on
``MatrixResult.failed_cells`` — summaries over a holed (scheme, model)
refuse loudly rather than quietly averaging fewer repetitions.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

from repro.analysis.stats import RunSummary, summarize_runs
from repro.experiments.cache import ResultCache, get_active_cache
from repro.experiments.executors.base import (
    CellExecutionError,
    CellFailure,
    CellFaultPolicy,
    CellOutcome,
    Executor,
    get_active_execution,
    make_executor,
    worker_count,
)
from repro.experiments.schemes import make_policy
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, RunResult, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.workloads.models import ModelSpec, get_model
from repro.workloads.traces import Trace

__all__ = [
    "CellSpec",
    "MatrixResult",
    "run_cell",
    "run_matrix",
]

logger = logging.getLogger(__name__)

#: The paper repeats every trace-driven experiment 5 times; benchmarks can
#: dial this down for wall-clock economy.
DEFAULT_REPETITIONS = 3


@dataclass(frozen=True)
class CellSpec:
    """One (scheme, model, repetition) cell of an experiment matrix.

    ``trace_factory`` builds the arrival trace from the repetition seed, so
    repetitions see different arrival randomness (as rerunning a testbed
    experiment would) while schemes within a repetition share the exact
    same trace.
    """

    scheme: str
    model_name: str
    seed: int
    trace_factory: Callable[[ModelSpec, int], Trace]
    slo_seconds: float = 0.200
    config: RunConfig = field(default_factory=RunConfig)
    keep_metrics: bool = False
    #: Restrict the hardware catalog to these node names (e.g. the Fig 13a
    #: exhaustion study pins every scheme to the V100).
    catalog_names: Optional[tuple[str, ...]] = None


# ----------------------------------------------------------------------
# Per-process profile database (shared across the cells a worker runs)
# ----------------------------------------------------------------------
#: Worker-local memo: catalog restriction -> ProfileService.  The profile
#: database is pure derived math (no mutable run state), so one instance
#: can serve every cell a worker executes.
_WORKER_PROFILES: dict[Optional[tuple[str, ...]], ProfileService] = {}


def _profiles_for(catalog_names: Optional[tuple[str, ...]]) -> ProfileService:
    profiles = _WORKER_PROFILES.get(catalog_names)
    if profiles is None:
        if catalog_names is None:
            profiles = ProfileService()
        else:
            from repro.hardware.catalog import default_catalog

            profiles = ProfileService(
                default_catalog().restricted(catalog_names)
            )
        _WORKER_PROFILES[catalog_names] = profiles
    return profiles


def run_cell(spec: CellSpec) -> RunResult:
    """Execute one cell (used directly and as the executor task)."""
    model = get_model(spec.model_name)
    trace = spec.trace_factory(model, spec.seed)
    profiles = _profiles_for(spec.catalog_names)
    policy = make_policy(
        spec.scheme, model, profiles, spec.slo_seconds, trace=trace
    )
    config = replace(spec.config, seed=spec.seed)
    result = ServerlessRun(
        model,
        trace,
        policy,
        profiles,
        SLO(spec.slo_seconds),
        config,
    ).execute()
    if not spec.keep_metrics:
        result.metrics = None  # type: ignore[assignment]
    return result


@dataclass
class MatrixResult:
    """All cells of an experiment, with per-(scheme, model) summaries.

    ``results`` preserves cell submission order; entries are ``None``
    only for terminally failed cells under
    ``on_cell_failure="skip"`` — those holes are described by
    ``failed_cells`` and any summary touching them raises.
    """

    results: list[Optional[RunResult]]
    #: Cells replayed from / missed in the result cache (0/0 when no
    #: cache was active).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Terminally failed cells (``on_cell_failure="skip"`` only).
    failed_cells: list[CellFailure] = field(default_factory=list)
    #: Executor fault totals across the whole matrix.
    cell_retries: int = 0
    cell_timeouts: int = 0
    worker_crashes: int = 0

    @property
    def complete(self) -> bool:
        return not self.failed_cells

    def cell_runs(self, scheme: str, model: str) -> list[RunResult]:
        return [
            r
            for r in self.results
            if r is not None and r.scheme == scheme and r.model == model
        ]

    def summary(self, scheme: str, model: str) -> RunSummary:
        holes = [
            f
            for f in self.failed_cells
            if f.scheme == scheme and f.model == model
        ]
        if holes:
            raise CellExecutionError(holes)
        runs = self.cell_runs(scheme, model)
        if not runs:
            raise KeyError(f"no runs for ({scheme}, {model})")
        return summarize_runs(runs)

    def schemes(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.results:
            if r is not None:
                seen.setdefault(r.scheme, None)
        return list(seen)

    def models(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.results:
            if r is not None:
                seen.setdefault(r.model, None)
        return list(seen)


# ----------------------------------------------------------------------
# Planner helpers
# ----------------------------------------------------------------------
def _resolve_executor(
    executor: Union[str, Executor, None],
    n_pending: int,
    chaos_seed: int,
) -> Executor:
    """Pick the backend: explicit arg > active settings > size heuristic."""
    if isinstance(executor, Executor):
        return executor
    if isinstance(executor, str) and executor != "auto":
        return make_executor(executor, chaos_seed=chaos_seed)
    workers = worker_count(n_pending, os.cpu_count() or 1)
    if n_pending > 4 and workers > 1:
        return make_executor("pool", max_workers=workers)
    return make_executor("serial")


def run_matrix(
    schemes: Sequence[str],
    model_names: Sequence[str],
    trace_factory: Callable[[ModelSpec, int], Trace],
    repetitions: int = DEFAULT_REPETITIONS,
    slo_seconds: float = 0.200,
    config: Optional[RunConfig] = None,
    seed0: int = 1,
    keep_metrics: bool = False,
    catalog_names: Optional[tuple[str, ...]] = None,
    cache: Union[ResultCache, bool, None] = None,
    executor: Union[str, Executor, None] = None,
    fault_policy: Optional[CellFaultPolicy] = None,
    on_cell_failure: Optional[str] = None,
) -> MatrixResult:
    """Run the full (scheme x model x repetition) matrix.

    Parameters
    ----------
    cache:
        ``None`` (default) consults the process-wide active cache (CLI
        ``--cache-dir`` / ``REPRO_CACHE_DIR``); ``False`` disables caching
        for this call; a :class:`ResultCache` uses that instance.
    executor / fault_policy / on_cell_failure:
        Explicit execution controls; each defaults to the process-wide
        :class:`~repro.experiments.executors.ExecutionSettings`
        installed by the CLI (``--executor``, ``--cell-retries``,
        ``--cell-timeout``, ``--on-cell-failure``), and to
        the historical behaviour when none are installed.  Without an
        executor (or with ``"auto"``), cells fan out over a process pool
        when more than 4 still need computing and more than one worker
        is available (see :func:`worker_count`), and run serially
        otherwise.
    """
    settings = get_active_execution()
    if fault_policy is None and settings is not None:
        fault_policy = settings.fault_policy
    if on_cell_failure is None:
        on_cell_failure = (
            settings.on_cell_failure if settings is not None else "fail"
        )
    if on_cell_failure not in ("fail", "skip"):
        raise ValueError("on_cell_failure must be 'fail' or 'skip'")
    if executor is None and settings is not None:
        executor = settings.executor
    chaos_seed = settings.chaos_seed if settings is not None else 0

    base_config = config if config is not None else RunConfig()
    cells = [
        CellSpec(
            scheme=scheme,
            model_name=model,
            seed=seed0 + rep,
            trace_factory=trace_factory,
            slo_seconds=slo_seconds,
            config=base_config,
            keep_metrics=keep_metrics,
            catalog_names=catalog_names,
        )
        for model in model_names
        for scheme in schemes
        for rep in range(repetitions)
    ]

    if cache is False:
        active_cache: Optional[ResultCache] = None
    elif cache is None:
        active_cache = get_active_cache()
    else:
        active_cache = cache

    # -- cache replay --------------------------------------------------
    results: list[Optional[RunResult]] = [None] * len(cells)
    pending: list[int] = []
    hits = 0
    if active_cache is not None:
        for i, spec in enumerate(cells):
            cached = active_cache.get(spec)
            if cached is not None:
                results[i] = cached
            else:
                pending.append(i)
        hits = len(cells) - len(pending)
        if hits:
            logger.debug(
                "result cache replayed %d/%d cells", hits, len(cells)
            )
    else:
        pending = list(range(len(cells)))

    # -- execute the remainder -----------------------------------------
    backend = _resolve_executor(executor, len(pending), chaos_seed)
    failures: list[CellFailure] = []
    n_retries = n_timeouts = n_crashes = 0
    misses = 0
    progress_step = max(1, len(pending) // 10)

    def _note(outcome: CellOutcome) -> None:
        nonlocal n_retries, n_timeouts, n_crashes
        n_retries += outcome.retries
        n_timeouts += outcome.timeouts
        n_crashes += outcome.crashes

    if pending:
        outcomes = backend.submit(
            [cells[i] for i in pending], fault_policy
        )
        done = 0
        try:
            for outcome in outcomes:
                idx = pending[outcome.index]
                _note(outcome)
                if outcome.ok:
                    results[idx] = outcome.result
                    misses += 1
                    if active_cache is not None:
                        active_cache.put(cells[idx], outcome.result)
                else:
                    spec = cells[idx]
                    failure = CellFailure(
                        index=idx,
                        scheme=spec.scheme,
                        model=spec.model_name,
                        seed=spec.seed,
                        kind=outcome.failure_kind or "exception",
                        attempts=outcome.attempts,
                        error=outcome.error or "",
                    )
                    failures.append(failure)
                done += 1
                # Log intermediate progress only for matrices with at
                # least 10 pending cells (a tiny sweep would log every
                # cell); the final count is always covered by the
                # summary line below.
                if len(pending) >= 10 and done % progress_step == 0:
                    logger.debug(
                        "matrix progress: %d/%d cells", done, len(pending)
                    )
        finally:
            close = getattr(outcomes, "close", None)
            if close is not None:
                close()

    # One consistent end-of-matrix summary, always including the final
    # cell count (the old 10%-step debug line skipped it for matrix
    # sizes not divisible by the step).
    logger.info(
        "matrix complete: %d cells (%d computed, %d cache hits, "
        "%d retries, %d timeouts, %d crashes, %d failed) via %s",
        len(cells), misses, hits, n_retries, n_timeouts, n_crashes,
        len(failures), backend.name if pending else "cache",
    )

    if failures and on_cell_failure == "fail":
        raise CellExecutionError(failures)

    if not failures:
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:  # pragma: no cover - executor contract violation
            raise RuntimeError(
                f"executor {backend.name!r} returned no outcome for "
                f"cells {missing[:5]}"
            )
    return MatrixResult(
        results=results,
        cache_hits=hits,
        cache_misses=len(pending) if active_cache is not None else 0,
        failed_cells=failures,
        cell_retries=n_retries,
        cell_timeouts=n_timeouts,
        worker_crashes=n_crashes,
    )
