"""Request batching (Section IV-B) — public API.

Requests are batch-served for throughput.  The batcher groups a trace's
arrivals into dispatch windows: a window closes every ``window_seconds`` (or
immediately once ``max_batch`` requests have accumulated), and everything in
it is handed to the policy as one set of ``N`` outstanding requests.  The
policy then carves the set into flexible-size sub-batches per its
spatial/temporal split — uniform batching would hinder the hybrid split
(Section IV-B), so sub-batch sizing is the policy's call, not the batcher's.

How the pieces interlock
------------------------
:class:`WindowTable`
    First stage: the *columnar* plan of a whole trace.  Every window's
    dispatch time and ``[start, end)`` slice into the (shared, sorted)
    arrival array are held as parallel numpy arrays, computed once up
    front with ``searchsorted`` — no per-request and no per-window Python
    work.  A window exists only as a row of this table: its requests are
    the row's arrival slice.  The framework's arrival pump walks the
    table and delivers all windows sharing a dispatch timestamp in one
    engine event; the Fig 1 pinned-GPU run schedules one event per row.
:func:`carve_sizes`
    Second stage: a policy's :meth:`~repro.baselines.base.Policy.
    plan_window` answers with a :class:`~repro.baselines.base.WindowPlan`
    built by :func:`~repro.baselines.base.split_plan`, whose spatial and
    temporal sub-batch sizes are carved from the window's ``N`` with this
    helper (full batches plus a flexible-size remainder).

The split between the two stages mirrors the paper: window formation is
workload-facing and policy-agnostic; sub-batch carving encodes each
policy's Equation-(1) split decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["WindowTable", "carve_sizes"]


@dataclass(frozen=True)
class WindowTable:
    """A whole trace's dispatch plan as parallel (columnar) arrays.

    Row ``i`` is one dispatch window: requests
    ``arrivals[starts[i]:ends[i]]`` released at ``dispatch_at[i]``.  Rows
    are sorted by dispatch time (stable — ties keep window-formation
    order), so a consumer can walk the table front to back and batch all
    rows sharing a timestamp into a single delivery.

    Attributes
    ----------
    arrivals:
        The full sorted arrival array the slices index into.
    dispatch_at:
        Per-window release times, ascending.
    starts / ends:
        Per-window ``[start, end)`` request slices.
    """

    arrivals: np.ndarray
    dispatch_at: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    def __len__(self) -> int:
        return int(self.dispatch_at.size)

    @classmethod
    def plan(
        cls,
        arrivals: np.ndarray,
        window_seconds: float,
        max_batch: Optional[int] = None,
    ) -> "WindowTable":
        """Group sorted arrivals into dispatch windows, columnar.

        Windows are aligned to multiples of ``window_seconds``; a window
        closing with more than ``max_batch`` requests is split into
        full-batch chunks that dispatch at the moment the chunk filled
        (early dispatch on full batch, as real batchers do).  The trailing
        partial window dispatches one window-length past the last edge.

        The whole plan is ``searchsorted`` + integer arithmetic; Python
        iterates only over the (rare) windows that overflow ``max_batch``.

        Parameters
        ----------
        arrivals:
            Sorted absolute arrival timestamps (seconds).
        window_seconds:
            Batching window length; windows close at multiples of it.
        max_batch:
            Early-dispatch threshold; ``None`` disables early dispatch.

        Raises
        ------
        ValueError
            If ``window_seconds`` is not positive.
        """
        if window_seconds <= 0:
            raise ValueError("window must be positive")
        arr = np.asarray(arrivals, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        if arr.size == 0:
            return cls(arr, np.empty(0), empty_i, empty_i.copy())
        edges = np.arange(
            0.0, float(arr[-1]) + window_seconds, window_seconds
        )[1:]
        idx = np.searchsorted(arr, edges, side="left")
        bounds = np.concatenate(([0], idx)).astype(np.int64)
        nz = np.flatnonzero(np.diff(bounds) > 0)
        w_start = bounds[nz]
        w_end = bounds[nz + 1]
        w_dispatch = edges[nz]
        if max_batch is not None and np.any(w_end - w_start > max_batch):
            # Expand overflowing windows into early-dispatch chunks.
            d_list: list[float] = []
            s_list: list[int] = []
            e_list: list[int] = []
            for s, e, d in zip(
                w_start.tolist(), w_end.tolist(), w_dispatch.tolist()
            ):
                size = e - s
                if size > max_batch:
                    n_full = size // max_batch
                    for i in range(n_full):
                        cs = s + i * max_batch
                        ce = cs + max_batch
                        d_list.append(float(arr[ce - 1]))
                        s_list.append(cs)
                        e_list.append(ce)
                    if e > s + n_full * max_batch:
                        d_list.append(d)
                        s_list.append(s + n_full * max_batch)
                        e_list.append(e)
                else:
                    d_list.append(d)
                    s_list.append(s)
                    e_list.append(e)
            w_dispatch = np.asarray(d_list, dtype=np.float64)
            w_start = np.asarray(s_list, dtype=np.int64)
            w_end = np.asarray(e_list, dtype=np.int64)
        tail_start = int(idx[-1]) if edges.size else 0
        if tail_start < arr.size:
            # The trailing partial window rides whole — it never filled,
            # so it dispatches at the edge after the last arrival.
            tail_at = (
                float(edges[-1] + window_seconds)
                if edges.size
                else window_seconds
            )
            w_dispatch = np.append(w_dispatch, tail_at)
            w_start = np.append(w_start, tail_start)
            w_end = np.append(w_end, arr.size)
        order = np.argsort(w_dispatch, kind="stable")
        return cls(arr, w_dispatch[order], w_start[order], w_end[order])


def carve_sizes(n: int, batch_size: int) -> list[int]:
    """Split ``n`` requests into sub-batches of at most ``batch_size``.

    The remainder rides in the last (smaller) batch — flexible batch sizes
    per Section IV-B.  This is the carving primitive behind every
    policy's :class:`~repro.baselines.base.WindowPlan`: Paldia carves the
    spatial portion (``n - y``) and the temporal portion (``y``)
    separately, single-mode baselines carve the whole window.

    Parameters
    ----------
    n:
        Request count to carve (``>= 0``).
    batch_size:
        Maximum sub-batch size (``>= 1``).

    Raises
    ------
    ValueError
        If ``n`` is negative or ``batch_size`` is below 1.
    """
    if n < 0 or batch_size < 1:
        raise ValueError("invalid carve parameters")
    if n == 0:
        return []
    full, rem = divmod(n, batch_size)
    sizes = [batch_size] * full
    if rem:
        sizes.append(rem)
    return sizes
