"""Algorithm 1: Paldia's Hardware Selection module.

Every monitoring interval the selector:

1. predicts the near-future request rate (EWMA over observed window rates,
   ~4 s lookahead so hardware can be acquired in time),
2. builds the candidate pool — configurations whose profiled capacity can
   serve the predicted rate (cheap CPU nodes qualify at low rates, GPU
   generations at high rates),
3. estimates each candidate's best achievable worst-case latency: Equation
   (1)'s minimum over ``y`` for GPUs (the vectorised sweep of
   :func:`repro.core.model.optimal_split`), the lane model for CPUs,
4. picks the cheapest candidate within ``perf_slack`` (~50 ms) of the most
   performant one,
5. applies hysteresis: only after ``wait_limit`` (3) consecutive intervals
   disagreeing with the current hardware does it request a reconfiguration
   — a single off-trend interval should not churn nodes.

The candidate scan is *columnar*: one :class:`CandidateTable` holds the
whole ``HW_dict`` as parallel numpy arrays (latency, cost, co-run level,
occupancy), solved in a single ``(candidates x y)`` grid by
:func:`repro.core.model.optimal_split_batch` and reduced with vectorised
feasibility masks + argmin.  The original row-by-row path is preserved
behind ``vectorized=False`` as the seed oracle; the two are bit-identical
(same IEEE operation order, same first-index tie-breaking) and the golden
suite holds them to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from repro.core._reference_model import reference_optimal_split
from repro.core.model import cpu_t_max, optimal_split_batch
from repro.core.predictor import RatePredictor
from repro.hardware.catalog import HardwareSpec
from repro.hardware.profiles import ProfileService
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.workloads.models import ModelSpec

__all__ = [
    "CandidateRow",
    "CandidateTable",
    "SelectionOutcome",
    "HardwareSelector",
    "choose_best_row",
]


@dataclass(frozen=True, slots=True)
class CandidateRow:
    """One row of Algorithm 1's ``HW_dict``: a candidate's best latency.

    The reference scan (:meth:`HardwareSelector.evaluate`) builds one per
    candidate.  The ``hardware_selection.tick`` trace event serialises
    each row as ``{hw, least_t_max, best_y, cost_per_hour}`` (with ``inf``
    written as ``null``), and :meth:`from_attrs` parses that back so the
    counterfactual engine can re-run ``choose_best_HW`` over logged state
    without re-simulation.
    """

    hw_name: str
    least_t_max: float
    best_y: Optional[int]
    cost_per_hour: float

    @classmethod
    def from_attrs(cls, attrs: dict) -> "CandidateRow":
        """Parse one serialised candidate (JSONL round trip: ``null``
        ``least_t_max`` means the candidate was infeasible at any split)."""
        t = attrs.get("least_t_max")
        return cls(
            hw_name=str(attrs.get("hw")),
            least_t_max=float("inf") if t is None else float(t),
            best_y=attrs.get("best_y"),
            cost_per_hour=float(attrs.get("cost_per_hour", 0.0)),
        )


def _no_contention(hw: HardwareSpec) -> float:
    """The default contention hook: the paper's model, no inflation."""
    return 1.0


def _all_available(hw: HardwareSpec) -> bool:
    """The default availability test: every node can be leased."""
    return True


def _lexmin_index(primary: np.ndarray, secondary: np.ndarray) -> int:
    """First index minimising ``(primary, secondary)`` lexicographically —
    the vectorised twin of ``min(rows, key=lambda r: (p(r), s(r)))``,
    including Python ``min``'s first-occurrence tie-breaking."""
    pmin = primary.min()
    cand = primary == pmin
    smin = secondary[cand].min()
    return int(np.flatnonzero(cand & (secondary == smin))[0])


def choose_best_row(
    rows: list[CandidateRow],
    slo_budget: float,
    perf_slack_seconds: float = 0.050,
) -> CandidateRow:
    """``choose_best_HW``: the cheapest candidate within
    ``perf_slack_seconds`` of the most performant.

    Candidates violating ``slo_budget`` are only chosen when *nothing*
    fits, in which case the fastest wins (graceful degradation — the Fig
    13a regime).  The reference scan runs this on live rows and the
    counterfactual engine (:mod:`repro.analysis.attribution`) on the rows
    of recorded ``hardware_selection.tick`` events;
    :meth:`CandidateTable.choose_best_index` is its columnar twin.
    """
    if not rows:
        raise ValueError("no candidates to choose from")
    best_t = min(r.least_t_max for r in rows)
    fitting = [r for r in rows if r.least_t_max <= slo_budget]
    if not fitting:
        return min(rows, key=lambda r: (r.least_t_max, r.cost_per_hour))
    # "Within ~50 ms of the most performant" (the paper's rule), but
    # when every candidate sits far inside the budget the comparison
    # degenerates (at light load T_max values are all tiny and the
    # fastest GPU always "wins" by more than the slack); any node with
    # comfortable margin is equally good, so cost decides.
    threshold = max(best_t + perf_slack_seconds, 0.8 * slo_budget)
    window = [r for r in fitting if r.least_t_max <= threshold]
    return min(
        window or fitting, key=lambda r: (r.cost_per_hour, r.least_t_max)
    )


@dataclass(frozen=True)
class CandidateTable:
    """Algorithm 1's ``HW_dict`` as parallel (columnar) numpy arrays.

    This is the public selection API: one tick's candidate scan lives in
    one table — no per-candidate Python objects on the hot path.  The
    recorded ``hardware_selection.tick`` payload (:attr:`trace_rows`)
    keeps the exact seed schema, so ``repro.attribution/1`` replay is
    unchanged.

    Attributes
    ----------
    specs:
        Candidate hardware, fixing row order.
    least_t_max:
        Best achievable worst-case latency per candidate (``inf`` when
        the candidate cannot serve the model at all).
    best_y:
        The Equation-(1) ``y`` achieving it (``NaN`` for CPU/incapable
        rows, where no spatial/temporal split applies).
    cost_per_hour:
        Lease price per candidate.
    co_run:
        Co-located batch count implied by ``best_y`` (``None`` on tables
        packed from reference-scan rows, which never computed it).
    occupancy:
        Planned aggregate FBR (existing + new residents) at ``best_y``.

    The arrays are frozen (non-writeable views) — a table is a value.
    """

    specs: tuple[HardwareSpec, ...]
    least_t_max: np.ndarray
    best_y: np.ndarray
    cost_per_hour: np.ndarray
    co_run: Optional[np.ndarray] = None
    occupancy: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        for arr in (
            self.least_t_max, self.best_y, self.cost_per_hour,
            self.co_run, self.occupancy,
        ):
            if arr is not None:
                arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.specs)

    @classmethod
    def from_rows(
        cls, specs: list[HardwareSpec], rows: list[CandidateRow]
    ) -> "CandidateTable":
        """Pack the reference scan's rows (one per spec, in order) into a
        table; no co-run/occupancy columns — that scan never computed
        them."""
        return cls(
            specs=tuple(specs),
            least_t_max=np.array(
                [r.least_t_max for r in rows], dtype=np.float64
            ),
            best_y=np.array(
                [math.nan if r.best_y is None else float(r.best_y)
                 for r in rows],
                dtype=np.float64,
            ),
            cost_per_hour=np.array(
                [r.cost_per_hour for r in rows], dtype=np.float64
            ),
        )

    # ------------------------------------------------------------------
    # Vectorised selection (choose_best_HW on arrays)
    # ------------------------------------------------------------------
    def choose_best_index(self, budget: float, slack: float) -> int:
        """Vectorised ``choose_best_HW``: cheapest candidate within
        ``slack`` of the most performant (see :func:`choose_best_row`,
        whose semantics — including first-index tie-breaking — this
        reproduces exactly)."""
        t = self.least_t_max
        if t.size == 0:
            raise ValueError("no candidates to choose from")
        cost = self.cost_per_hour
        fitting = t <= budget
        if not fitting.any():
            return _lexmin_index(t, cost)
        threshold = max(float(t.min()) + slack, 0.8 * budget)
        window = fitting & (t <= threshold)
        pool = window if window.any() else fitting
        return _lexmin_index(
            np.where(pool, cost, np.inf), np.where(pool, t, np.inf)
        )

    def index_of(self, hw_name: str) -> Optional[int]:
        for i, spec in enumerate(self.specs):
            if spec.name == hw_name:
                return i
        return None

    def _best_y_at(self, i: int) -> Optional[int]:
        y = float(self.best_y[i])
        return None if math.isnan(y) else int(y)

    @cached_property
    def trace_rows(self) -> list[dict]:
        """The ``hardware_selection.tick`` candidate payload — the exact
        seed schema (``{hw, least_t_max, best_y, cost_per_hour}``) —
        computed once per table: every tick over a memoised table shares
        this list, so it is read-only."""
        return [
            {
                "hw": self.specs[i].name,
                "least_t_max": float(self.least_t_max[i]),
                "best_y": self._best_y_at(i),
                "cost_per_hour": float(self.cost_per_hour[i]),
            }
            for i in range(len(self.specs))
        ]


@dataclass
class SelectionOutcome:
    """Result of one monitoring tick; ``table`` is its candidate scan."""

    chosen: HardwareSpec
    table: CandidateTable
    switch_requested: bool
    predicted_rps: float


class HardwareSelector:
    """Stateful Algorithm 1 executor (one per model being served).

    Parameters
    ----------
    model / profiles:
        Workload and the profiling database.
    predictor:
        Rate predictor (EWMA, or the Oracle's clairvoyant one).
    slo_seconds:
        The request SLO.
    lookahead_seconds:
        How far ahead hardware must be capable (~4 s: procurement time).
    plan_horizon_seconds:
        The window of requests Equation (1) is solved over (``N = rate *
        horizon``).
    perf_slack_seconds:
        ``choose_best_HW``'s cost/performance window (~50 ms).
    wait_limit:
        Consecutive mismatching intervals before an *escalating* switch
        (3, per Algorithm 1).
    wait_limit_down:
        Consecutive mismatching intervals before a *de-escalating* switch.
        De-escalation is deliberately damped (default 20): giving up a
        faster node costs SLO compliance when the dip is noise or a ramp
        plateau, while holding it a few extra seconds costs fractions of a
        cent.
    latency_budget_fraction:
        Fraction of the SLO that T_max may consume (the rest absorbs
        batching wait, dispatch, and prediction error).
    vectorized:
        Run the candidate scan on the columnar :class:`CandidateTable`
        grid (default).  ``False`` keeps the seed's row-by-row scan with
        no memoisation — the oracle the golden bit-identity suite compares
        against.
    """

    def __init__(
        self,
        model: ModelSpec,
        profiles: ProfileService,
        predictor: RatePredictor,
        slo_seconds: float,
        lookahead_seconds: float = 4.0,
        plan_horizon_seconds: float = 0.1,
        perf_slack_seconds: float = 0.050,
        wait_limit: int = 3,
        wait_limit_down: int = 20,
        latency_budget_fraction: float = 0.85,
        vectorized: bool = True,
    ) -> None:
        self.model = model
        self.profiles = profiles
        self.predictor = predictor
        self.slo_seconds = float(slo_seconds)
        self.lookahead_seconds = float(lookahead_seconds)
        self.plan_horizon_seconds = float(plan_horizon_seconds)
        self.perf_slack_seconds = float(perf_slack_seconds)
        self.wait_limit = int(wait_limit)
        self.wait_limit_down = int(wait_limit_down)
        self.latency_budget_fraction = float(latency_budget_fraction)
        self.vectorized = bool(vectorized)
        #: Host-contention inflation per candidate (>= 1).  The default —
        #: no inflation — is the paper's model; the contention-aware
        #: extension (its stated future work) plugs in live estimates.
        self.contention_for: Callable[[HardwareSpec], float] = _no_contention
        self._wait_ctr = 0
        #: Decision-audit sink; every tick emits a
        #: ``hardware_selection.tick`` event when tracing is enabled.
        self.tracer: Tracer = NULL_TRACER
        #: Per-hardware profiled constants (batch, solo, fbr, bounds) —
        #: pure functions of (model, hw, slo), resolved once.
        self._consts: dict[str, tuple] = {}
        #: Memoised candidate tables keyed on the exact solve inputs.
        self._table_cache: dict[tuple, CandidateTable] = {}
        #: ``get_HW_pool``'s profiled table for this model, resolved once.
        self._hw_pool = profiles.hw_pool_table(model, self.slo_seconds)

    # ------------------------------------------------------------------
    # Candidate evaluation (the par_for body of Algorithm 1)
    # ------------------------------------------------------------------
    def evaluate(
        self, hw: HardwareSpec, n_future: int, existing_fbr: float = 0.0
    ) -> CandidateRow:
        """Best achievable worst-case latency of ``hw`` for ``n_future``
        requests (Algorithm 1 steps c/d) — the scalar reference scan."""
        budget = self.slo_seconds * self.latency_budget_fraction
        batch = self.profiles.best_batch(self.model, hw, self.slo_seconds)
        if batch == 0:
            return CandidateRow(hw.name, float("inf"), None, hw.price_per_hour)
        solo = self.profiles.solo_time(self.model, hw, batch) * max(
            1.0, self.contention_for(hw)
        )
        if not hw.is_gpu:
            t = cpu_t_max(
                n_future, batch, solo, hw.cpu_lanes,
                horizon=self.plan_horizon_seconds,
            )
            return CandidateRow(hw.name, t, None, hw.price_per_hour)
        # The seed's per-call solve (frozen in _reference_model): this
        # scalar scan is the cost oracle the vectorized table is measured
        # against, so it must pay the seed's exact work.
        decision = reference_optimal_split(
            n=n_future,
            batch_size=batch,
            solo=solo,
            fbr=self.profiles.fbr(self.model, hw),
            slo_seconds=budget,
            interference=self.profiles.interference,
            existing_fbr=existing_fbr,
            max_coresident=self.profiles.max_coresident(self.model, hw),
            solo_single=self.profiles.solo_time(self.model, hw, 1),
        )
        return CandidateRow(
            hw.name, decision.t_max, decision.y, hw.price_per_hour
        )

    def _hw_consts(self, hw: HardwareSpec) -> tuple:
        """Profiled per-candidate constants, resolved once per hardware:
        ``(batch, solo_base, fbr, max_coresident, solo_single, price)``.
        ``batch == 0`` marks an incapable node; ``fbr`` is 0 for CPUs."""
        try:
            return self._consts[hw.name]
        except KeyError:
            pass
        profiles = self.profiles
        batch = profiles.best_batch(self.model, hw, self.slo_seconds)
        if batch == 0:
            entry = (0, 0.0, 0.0, 0, 0.0, hw.price_per_hour)
        else:
            entry = (
                batch,
                profiles.solo_time(self.model, hw, batch),
                profiles.fbr(self.model, hw) if hw.is_gpu else 0.0,
                profiles.max_coresident(self.model, hw) if hw.is_gpu else 0,
                profiles.solo_time(self.model, hw, 1) if hw.is_gpu else 0.0,
                hw.price_per_hour,
            )
        self._consts[hw.name] = entry
        return entry

    def _table_entry(
        self,
        pool: list[HardwareSpec],
        n_future: int,
        current_hw: Optional[HardwareSpec],
        existing_fbr: float,
    ) -> list:
        """Cache entry ``[table, chosen_index_or_None]`` for one columnar
        candidate scan: the whole pool solved as one ``(candidates x y)``
        grid (see :func:`repro.core.model.optimal_split_batch`).

        Residency (``existing_fbr``) only burdens the incumbent row — a
        candidate we would switch to starts empty.  Entries are memoised
        on the exact solve inputs, so repeated ticks under a steady rate
        are dictionary lookups.  The chosen index is filled in lazily by
        :meth:`tick` — budget and slack are selector constants, so a
        table's verdict never changes."""
        inc = current_hw.name if current_hw is not None else None
        key = [hw.name for hw in pool]
        contention_for = self.contention_for
        if contention_for is _no_contention:
            contentions = None
        else:
            contentions = [max(1.0, contention_for(hw)) for hw in pool]
            key += contentions
        key += (n_future, inc, existing_fbr)
        key = tuple(key)
        cached = self._table_cache.get(key)
        if cached is not None:
            return cached

        c = len(pool)
        consts = [self._hw_consts(hw) for hw in pool]
        t_col = np.empty(c, dtype=np.float64)
        y_col = np.full(c, np.nan)
        cost_col = np.array([e[5] for e in consts], dtype=np.float64)
        co_run_col = np.zeros(c)
        occ_col = np.zeros(c)

        unsolved: list[int] = []
        if contentions is None:
            contentions = [1.0] * c
        for i, hw in enumerate(pool):
            batch, solo_base, _fbr, _mc, _ss, _price = consts[i]
            if batch == 0:
                t_col[i] = np.inf
            elif not hw.is_gpu:
                t_col[i] = cpu_t_max(
                    n_future, batch, solo_base * contentions[i],
                    hw.cpu_lanes, horizon=self.plan_horizon_seconds,
                )
            else:
                unsolved.append(i)
        if unsolved:
            idx = np.array(unsolved)
            t_best, y_best, k_best, occ_best = optimal_split_batch(
                n=n_future,
                batch_sizes=np.array([consts[i][0] for i in unsolved]),
                solos=np.array(
                    [consts[i][1] * contentions[i] for i in unsolved]
                ),
                fbrs=np.array([consts[i][2] for i in unsolved]),
                interference=self.profiles.interference,
                existing_fbrs=np.array(
                    [
                        existing_fbr
                        if inc is not None and pool[i].name == inc
                        else 0.0
                        for i in unsolved
                    ]
                ),
                max_coresidents=np.array([consts[i][3] for i in unsolved]),
                solo_singles=np.array([consts[i][4] for i in unsolved]),
            )
            t_col[idx] = t_best
            y_col[idx] = y_best
            co_run_col[idx] = k_best
            occ_col[idx] = occ_best

        table = CandidateTable(
            specs=tuple(pool),
            least_t_max=t_col,
            best_y=y_col,
            cost_per_hour=cost_col,
            co_run=co_run_col,
            occupancy=occ_col,
        )
        entry = [table, None]
        if len(self._table_cache) >= 4096:
            self._table_cache.clear()
        self._table_cache[key] = entry
        return entry

    # ------------------------------------------------------------------
    # One monitoring tick (the outer loop of Algorithm 1)
    # ------------------------------------------------------------------
    def tick(
        self,
        now: float,
        current_hw: Optional[HardwareSpec],
        existing_fbr: float = 0.0,
        backlog: int = 0,
        is_available: Callable[[HardwareSpec], bool] = _all_available,
    ) -> SelectionOutcome:
        """Run one Hardware_Selection pass; applies hysteresis.

        ``backlog`` is the current software-queue depth (Algorithm 1 reads
        ``curr_request_queue`` before predicting): hardware must be able to
        drain what has already accumulated *and* what is coming.
        ``is_available`` excludes failed or breaker-blocked hardware from
        the pool (the selector keeps no reference to it).
        ``switch_requested`` is only True after ``wait_limit`` consecutive
        mismatches (the paper's ``wait_ctr``)."""
        rate = self.predictor.predict(now, self.lookahead_seconds)
        n_future = max(1, math.ceil(rate * self.plan_horizon_seconds) + max(0, backlog))
        effective_rate = rate + max(0, backlog) / max(
            self.lookahead_seconds, 1e-9
        )
        pool = [
            hw for hw in self._hw_pool.admit(effective_rate)
            if is_available(hw)
        ]
        if not pool:
            pool = [hw for hw in self.profiles.catalog.by_cost() if is_available(hw)]
        if not pool:
            raise RuntimeError("no available hardware in the catalog")
        if current_hw is not None and current_hw.name not in [
            hw.name for hw in pool
        ]:
            # Keep the incumbent in the comparison: its (in)feasibility is
            # what emergency escalation is judged against.
            pool.append(current_hw)
        budget = self.slo_seconds * self.latency_budget_fraction
        if self.vectorized:
            entry = self._table_entry(
                pool, n_future, current_hw, existing_fbr
            )
            table = entry[0]
            if entry[1] is None:
                entry[1] = table.choose_best_index(
                    budget, self.perf_slack_seconds
                )
            chosen = table.specs[entry[1]]
        else:
            rows = [
                self.evaluate(
                    hw,
                    n_future,
                    # Residency only burdens the node that actually holds
                    # it: a candidate we would switch to starts empty.
                    existing_fbr=existing_fbr
                    if current_hw is not None and hw.name == current_hw.name
                    else 0.0,
                )
                for hw in pool
            ]
            best = choose_best_row(rows, budget, self.perf_slack_seconds)
            table = CandidateTable.from_rows(pool, rows)
            chosen = table.specs[table.index_of(best.hw_name)]

        switch = False
        emergency = False
        if current_hw is None or chosen.name != current_hw.name:
            self._wait_ctr += 1
            escalating = (
                current_hw is None or chosen.perf_rank < current_hw.perf_rank
            )
            # Emergency: the node we are on cannot meet the SLO for the
            # predicted load.  The wait_ctr exists to damp cost-driven
            # churn, not to sit through an active violation risk.
            cur_idx = (
                table.index_of(current_hw.name)
                if current_hw is not None
                else None
            )
            emergency = (
                escalating
                and cur_idx is not None
                and float(table.least_t_max[cur_idx]) > budget
            )
            limit = self.wait_limit if escalating else self.wait_limit_down
            if current_hw is None or emergency or self._wait_ctr >= limit:
                switch = True
        else:
            self._wait_ctr = 0
        if self.tracer.enabled:
            # The full Algorithm 1 audit row: candidate table, hysteresis
            # state *before* any post-switch reset, and the verdict.
            self.tracer.event(
                "hardware_selection.tick",
                now,
                cat="decision",
                predicted_rps=rate,
                n_future=n_future,
                backlog=backlog,
                current=current_hw.name if current_hw is not None else None,
                chosen=chosen.name,
                switch_requested=switch,
                emergency=emergency,
                wait_ctr=self._wait_ctr,
                wait_limit=self.wait_limit,
                wait_limit_down=self.wait_limit_down,
                slo_budget=self.slo_seconds * self.latency_budget_fraction,
                perf_slack=self.perf_slack_seconds,
                candidates=table.trace_rows,
            )
        if switch:
            self._wait_ctr = 0
        # Positional arguments (chosen, table, switch_requested,
        # predicted_rps): keywords cost more once per tick.
        return SelectionOutcome(chosen, table, switch, rate)
