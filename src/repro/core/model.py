"""Equation (1): the interference/queueing trade-off model and y-solver.

Section III of the paper models the worst-case completion time of ``N``
outstanding requests when ``y`` of them are queued (time-shared) and the
remaining ``N - y`` are co-located on the GPU via MPS:

    T_max(y) = Solo * (y / BS)                       # queued, serial
             + Solo * slowdown(((N - y)/BS) * FBR)   # co-located via MPS

with the paper's constraints ``y < N`` (can't queue more than exist) and
``((N - y)/BS) * FBR > 1`` (enough co-location for the interference term to
be valid — i.e. the device is actually bandwidth-saturated).  The paper's
linear form is ``slowdown(s) = s``; we evaluate the *profiled* interference
curve (see :mod:`repro.simulator.interference`), which reduces to the
paper's model when its exponent is 1 and the demand is past the knee.

Extensions needed for an online system (and used by our Hardware Selection):

* an ``existing_fbr`` term folds in work already resident on the device;
* a memory bound caps how many batches can co-reside at all;
* the sweep over candidate ``y`` values (the paper probes them with
  multiple threads, <3 ms) is evaluated as one vectorised NumPy expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.simulator.interference import DEFAULT_INTERFERENCE, InterferenceModel

__all__ = [
    "SplitDecision",
    "optimal_split",
    "optimal_split_batch",
    "t_max_curve",
    "cpu_t_max",
]


@dataclass(frozen=True)
class SplitDecision:
    """Outcome of the Equation-(1) solve for one (hardware, window).

    Attributes
    ----------
    y:
        Requests to queue (time share); ``n - y`` go spatial.
    t_max:
        Predicted worst-case completion time at this ``y`` (seconds).
    feasible:
        Whether ``t_max`` fits the SLO budget handed to the solver.
    n:
        Total requests considered.
    batch_size:
        Batch size used for both phases.
    n_spatial_batches:
        Co-located batch count implied by the split.
    """

    y: int
    t_max: float
    feasible: bool
    n: int
    batch_size: int

    @property
    def n_spatial(self) -> int:
        return self.n - self.y

    @property
    def n_spatial_batches(self) -> int:
        return math.ceil(self.n_spatial / self.batch_size) if self.n_spatial else 0

    @property
    def n_temporal_batches(self) -> int:
        return math.ceil(self.y / self.batch_size) if self.y else 0


def t_max_curve(
    y: np.ndarray,
    n: int,
    batch_size: int,
    solo: float,
    fbr: float,
    interference: InterferenceModel = DEFAULT_INTERFERENCE,
    existing_fbr: float = 0.0,
    existing_queue: int = 0,
    solo_single: float = 0.0,
) -> np.ndarray:
    """Vectorised T_max over candidate ``y`` values.

    The queued term uses the paper's proportional-fraction approximation
    (``Solo * y / BS``), extended with the ``existing_queue`` requests
    already waiting in the device FIFO — queueing more work behind a
    backlog is not free, and ignoring it makes full-temporal splits look
    deceptively cheap near saturation.  The spatial term inflates one
    batch's solo time by the profiled slowdown at the aggregate demand the
    split would create, including ``existing_fbr`` already resident.
    """
    if n < 0 or batch_size < 1 or solo <= 0 or fbr < 0:
        raise ValueError("invalid model parameters")
    if existing_queue < 0:
        raise ValueError("existing_queue cannot be negative")
    y_arr = np.asarray(y, dtype=np.float64)
    t, _k, _tf = _t_grid(
        y_arr, n, batch_size, solo, fbr, interference,
        existing_fbr, existing_queue, solo_single,
    )
    return t


def _t_grid(
    y_arr: np.ndarray,
    n: int,
    batch_size: float,
    solo: float,
    fbr: float,
    interference: InterferenceModel,
    existing_fbr: float,
    existing_queue: int,
    solo_single: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared Equation-(1) kernel: ``(T_max, k, total_fbr)`` over
    candidate ``y``.

    ``y_arr`` must already be float64; scalar parameters broadcast, so the
    same expression serves the 1-D per-candidate sweep and the 2-D
    ``(C, n+1)`` candidate grid (column-shaped parameters).  Every
    elementwise operation matches the pre-fusion ``t_max_curve`` bit for
    bit — shared subexpressions are reused, never reassociated.
    """
    n_spatial = n - y_arr
    ns_over_bs = n_spatial / batch_size
    k = np.ceil(ns_over_bs)  # co-located batches
    # Aggregate demand uses the paper's continuous form
    # ((N - y)/BS) * FBR: partial batches demand proportionally less
    # bandwidth, so the expression needs no per-batch rounding.
    total_fbr = existing_fbr + ns_over_bs * fbr
    # The paper's proportional-fraction approximation on both phases,
    # floored by the single-request execution time: a partial batch still
    # pays the fixed per-batch overhead (solo_single), so requests can
    # never "cost" less than one real execution.
    queue_depth = (existing_queue + y_arr) if existing_queue else y_arr
    queued = np.where(
        y_arr > 0,
        np.maximum(solo_single, solo * (queue_depth / batch_size)),
        0.0,
    )
    kpos = k > 0
    batch_frac = np.divide(
        n_spatial, k * batch_size, out=np.zeros_like(k), where=kpos
    )
    spatial_base = np.maximum(solo_single, solo * batch_frac)
    slowdown = getattr(interference, "_slowdown_raw", None)
    if slowdown is None:  # ablation models only implement the public API
        slowdown = interference.slowdown_array
    spatial = np.where(
        kpos,
        spatial_base * slowdown(total_fbr),
        0.0,
    )
    return queued + spatial, k, total_fbr


def optimal_split(
    n: int,
    batch_size: int,
    solo: float,
    fbr: float,
    slo_seconds: float,
    interference: InterferenceModel = DEFAULT_INTERFERENCE,
    existing_fbr: float = 0.0,
    existing_queue: int = 0,
    max_coresident: Optional[int] = None,
    max_total_fbr: Optional[float] = None,
    solo_single: float = 0.0,
) -> SplitDecision:
    """Solve Equation (1): the ``y`` minimising predicted T_max.

    Parameters
    ----------
    n:
        Outstanding requests for the model right now (the paper's ``N_M``).
    batch_size:
        Current flexible batch size (``BS_M``).
    solo:
        Profiled isolated batch latency on the target GPU (``Solo_M``).
    fbr:
        Profiled per-batch FBR on the target GPU (``FBR_M``).
    slo_seconds:
        Remaining latency budget; feasibility is judged against it.
    existing_fbr:
        Aggregate FBR already executing on the device (our online
        extension; 0 reproduces the paper's formula exactly).
    existing_queue:
        Requests already waiting in the device's temporal FIFO; queued
        requests of this window finish behind them.
    max_coresident:
        Memory bound on co-located batches; ``y`` values implying more are
        excluded from the optimal range.
    max_total_fbr:
        Occupancy cap on the aggregate (existing + planned) bandwidth
        demand; Paldia uses ~2x the interference knee.

    Returns
    -------
    SplitDecision
        With ``feasible=False`` when no candidate fits the SLO — the
        caller (Hardware Selection) should then try the next more
        performant GPU rather than rate-limit (Section III).
    """
    if n <= 0:
        return SplitDecision(y=0, t_max=0.0, feasible=True, n=0, batch_size=batch_size)
    # The sweep includes y = n ("queue everything"): the paper's constraint
    # y < N merely marks where the interference term is meaningful, but an
    # online scheduler must be able to fall back to pure time sharing —
    # e.g. one straggler window on a device already saturated by residents.
    y = np.arange(0, n + 1, dtype=np.int64)
    if n < 0 or batch_size < 1 or solo <= 0 or fbr < 0:
        raise ValueError("invalid model parameters")
    if existing_queue < 0:
        raise ValueError("existing_queue cannot be negative")
    t, k, _tf = _t_grid(
        y.astype(np.float64), n, batch_size, solo, fbr, interference,
        existing_fbr, existing_queue, solo_single,
    )
    if max_coresident is not None:
        t = np.where(k <= max_coresident, t, np.inf)
    if max_total_fbr is not None:
        # Occupancy cap: never *plan* co-location past this aggregate
        # demand — past the knee, more residents shrink throughput, and a
        # transient stack-up can spiral (each admission slows every other
        # resident).  y = n (fully temporal, k = 0) always satisfies it.
        t = np.where(existing_fbr + k * fbr <= max_total_fbr, t, np.inf)
    i = int(np.argmin(t))
    t_best = float(t[i])
    if not np.isfinite(t_best):
        # Even full queueing violates memory?  (cannot happen: y=n-1 leaves
        # one request; guard for degenerate max_coresident=0.)
        return SplitDecision(
            y=n - 1, t_max=float("inf"), feasible=False, n=n, batch_size=batch_size
        )
    return SplitDecision(
        y=int(y[i]),
        t_max=t_best,
        feasible=t_best <= slo_seconds,
        n=n,
        batch_size=batch_size,
    )


def optimal_split_batch(
    n: int,
    batch_sizes: np.ndarray,
    solos: np.ndarray,
    fbrs: np.ndarray,
    interference: InterferenceModel = DEFAULT_INTERFERENCE,
    existing_fbrs: Optional[np.ndarray] = None,
    max_coresidents: Optional[np.ndarray] = None,
    solo_singles: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve Equation (1) for *many candidates at once* on a 2-D grid.

    This is the columnar twin of per-candidate :func:`optimal_split` calls
    with ``existing_queue=0`` and no ``max_total_fbr`` cap — exactly the
    shape of Algorithm 1's candidate scan.  Candidate parameters arrive as
    parallel arrays of length ``C``; the solver broadcasts them against the
    shared ``y = 0..n`` sweep into one ``(C, n+1)`` grid and reduces with
    ``argmin`` per row.

    Bit-identity contract: every elementwise operation below replicates
    :func:`t_max_curve`'s expression structure and operation order, so each
    grid element carries the *identical IEEE-754 bits* a per-candidate 1-D
    sweep would produce, and ``np.argmin`` resolves ties by first index in
    both shapes.  The golden-trace suite holds the vectorized selector to
    this contract against the scalar seed path.

    Returns
    -------
    (t_best, y_best, k_best, occupancy_best):
        Per-candidate arrays: minimal T_max, its ``y``, the implied
        co-located batch count (co-run level), and the planned aggregate
        FBR (occupancy) at that ``y``.  Rows with no finite split get
        ``t_best = inf`` and ``y_best = n - 1`` (matching the scalar
        degenerate-guard).
    """
    bs = np.asarray(batch_sizes, dtype=np.float64)
    if n < 0 or np.any(bs < 1):
        raise ValueError("invalid model parameters")
    solos = np.asarray(solos, dtype=np.float64)
    fbrs = np.asarray(fbrs, dtype=np.float64)
    c = bs.shape[0]
    if n <= 0:
        zero = np.zeros(c)
        return zero, np.zeros(c, dtype=np.int64), zero, zero.copy()
    ef = (
        np.zeros(c)
        if existing_fbrs is None
        else np.asarray(existing_fbrs, dtype=np.float64)
    )
    ss = (
        np.zeros(c)
        if solo_singles is None
        else np.asarray(solo_singles, dtype=np.float64)
    )
    y = np.arange(0, n + 1, dtype=np.int64)
    # --- t_max_curve, broadcast to (C, n+1); op order preserved ---------
    # Column-shaped candidate parameters against the shared row-shaped
    # y-sweep: each grid row carries the bits its 1-D sweep would.
    t, k, total_fbr = _t_grid(
        y.astype(np.float64), n, bs[:, None], solos[:, None],
        fbrs[:, None], interference, ef[:, None], 0, ss[:, None],
    )
    # --- optimal_split's feasibility mask and argmin reduction ----------
    if max_coresidents is not None:
        mc = np.asarray(max_coresidents, dtype=np.float64)
        t = np.where(k <= mc[:, None], t, np.inf)
    i = np.argmin(t, axis=1)
    rows = np.arange(c)
    t_best = t[rows, i]
    y_best = y[i]
    k_best = k[rows, i]
    occupancy_best = total_fbr[rows, i]
    bad = ~np.isfinite(t_best)
    if bad.any():
        y_best = np.where(bad, n - 1, y_best)
        k_best = np.where(bad, 0.0, k_best)
        occupancy_best = np.where(bad, ef, occupancy_best)
    return t_best, y_best, k_best, occupancy_best


def cpu_t_max(
    n: int,
    batch_size: int,
    solo: float,
    lanes: int,
    horizon: float = 0.0,
) -> float:
    """Algorithm 1's ``approx_T_max`` for CPU nodes.

    Batches execute serially per lane.  When the ``n`` requests arrive as a
    burst (``horizon = 0``) the worst one waits for every stage of its lane;
    when they arrive spread over ``horizon`` seconds, the lanes drain while
    arrivals trickle in, and the worst request only sees the residual
    backlog: ``solo + max(0, total_work / lanes - horizon)``.
    """
    if n <= 0:
        return 0.0
    if batch_size < 1 or solo <= 0 or lanes < 1:
        raise ValueError("invalid CPU model parameters")
    if horizon < 0:
        raise ValueError("horizon cannot be negative")
    batches = math.ceil(n / batch_size)
    total_work = batches * solo
    return solo + max(0.0, total_work / lanes - horizon)
