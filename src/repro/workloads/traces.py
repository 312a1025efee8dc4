"""Request-arrival traces (Section V).

The paper drives its evaluation with four arrival patterns:

* a sample of the **Azure** serverless traces — mostly sparse/stable traffic
  with occasional large surges (peak:mean ≈ 673:55 ≈ 12.2), ~25 minutes;
* a 5-day **Wikipedia** trace with a diurnal pattern (~16 sustained high
  hours per day), peak scaled to ~170 rps;
* a 90-minute erratic, dense **Twitter** sample at 5x the Azure average;
* a synthetic **Poisson** trace (~700 rps) that overwhelms even the V100
  (the resource-exhaustion study, Fig 13a).

We regenerate each pattern's statistical signature with seeded NumPy
samplers.  A :class:`Trace` is a sorted array of absolute arrival seconds
plus the piecewise-constant offered-rate curve it was sampled from; the rate
curve is what the clairvoyant Oracle and the goodput analysis read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Trace",
    "azure_trace",
    "wiki_trace",
    "twitter_trace",
    "poisson_trace",
    "constant_trace",
    "AZURE_PEAK_TO_MEAN",
]

#: The paper's chosen Azure sample has a ~673:55 peak-to-mean ratio.
AZURE_PEAK_TO_MEAN = 673.0 / 55.0


@dataclass(frozen=True)
class Trace:
    """An arrival trace: request timestamps plus the generating rate curve.

    Attributes
    ----------
    name:
        Pattern family (``azure``, ``wiki``, ``twitter``, ``poisson``...).
    arrivals:
        Sorted absolute arrival times, seconds.
    duration:
        Trace horizon in seconds (arrivals all fall in ``[0, duration)``).
    bin_rates:
        Offered rate (requests/second) per time bin.
    bin_seconds:
        Width of each rate bin.
    """

    name: str
    arrivals: np.ndarray
    duration: float
    bin_rates: np.ndarray
    bin_seconds: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("trace duration must be positive")
        arr = np.asarray(self.arrivals, dtype=np.float64)
        if arr.size and (np.any(np.diff(arr) < 0)):
            raise ValueError("arrivals must be sorted ascending")

    @property
    def n_requests(self) -> int:
        return int(self.arrivals.size)

    @property
    def mean_rps(self) -> float:
        return self.n_requests / self.duration

    @property
    def peak_rps(self) -> float:
        """Peak of the offered-rate curve."""
        return float(self.bin_rates.max()) if self.bin_rates.size else 0.0

    def rate_window(self, t0: float, t1: float) -> float:
        """Mean offered rate over ``[t0, t1)`` from the rate curve."""
        if t1 <= t0:
            raise ValueError("empty rate window")
        i0 = max(0, int(t0 / self.bin_seconds))
        i1 = min(self.bin_rates.size, max(i0 + 1, int(np.ceil(t1 / self.bin_seconds))))
        if i0 >= self.bin_rates.size:
            return 0.0
        return float(self.bin_rates[i0:i1].mean())

    def peak_window(self, width_seconds: float = 60.0) -> tuple[float, float]:
        """The ``width_seconds`` window with the highest offered traffic
        (Fig 7a evaluates goodput over the busiest period)."""
        k = max(1, int(round(width_seconds / self.bin_seconds)))
        if self.bin_rates.size <= k:
            return (0.0, self.duration)
        sums = np.convolve(self.bin_rates, np.ones(k), mode="valid")
        i = int(np.argmax(sums))
        return (i * self.bin_seconds, (i + k) * self.bin_seconds)


# ----------------------------------------------------------------------
# Sampling machinery
# ----------------------------------------------------------------------
def _sample_from_rates(
    name: str,
    bin_rates: np.ndarray,
    bin_seconds: float,
    rng: np.random.Generator,
) -> Trace:
    """Draw a non-homogeneous Poisson arrival set from a rate curve.

    Per-bin Poisson counts with uniform within-bin placement — fully
    vectorised (the hpc-parallel guides' idiom: no Python loop per
    request)."""
    rates = np.clip(np.asarray(bin_rates, dtype=np.float64), 0.0, None)
    counts = rng.poisson(rates * bin_seconds)
    starts = np.arange(rates.size) * bin_seconds
    base = np.repeat(starts, counts)
    jitter = rng.random(base.size) * bin_seconds
    arrivals = np.sort(base + jitter)
    return Trace(
        name=name,
        arrivals=arrivals,
        duration=rates.size * bin_seconds,
        bin_rates=rates,
        bin_seconds=bin_seconds,
    )


def _gaussian_bump(t: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((t - center) / width) ** 2)


# ----------------------------------------------------------------------
# Trace families
# ----------------------------------------------------------------------
def azure_trace(
    peak_rps: float,
    duration: float = 1500.0,
    seed: int = 0,
    n_surges: int = 3,
    bin_seconds: float = 1.0,
    peak_to_mean: float = AZURE_PEAK_TO_MEAN,
    main_spike_width: tuple[float, float] = (12.0, 16.0),
    secondary_width: tuple[float, float] = (15.0, 25.0),
    secondary_amp: tuple[float, float] = (0.40, 0.60),
) -> Trace:
    """An Azure-functions-like trace: sparse baseline + request surges.

    The paper's sample shows "relatively stable and sparse request traffic"
    with "occasional request surges" and a peak:mean ratio of ~12.2.  We
    reproduce that signature with one sharp main spike that touches
    ``peak_rps`` plus ``n_surges - 1`` broader but much smaller secondary
    surges; the baseline level is then solved so the overall mean hits
    ``peak_rps / peak_to_mean``.
    """
    if peak_rps <= 0:
        raise ValueError("peak_rps must be positive")
    rng = np.random.default_rng(seed)
    t = (np.arange(int(duration / bin_seconds)) + 0.5) * bin_seconds

    # Main spike: full amplitude, sharp.
    c_main = rng.uniform(0.25, 0.65) * duration
    w_main = rng.uniform(*main_spike_width)
    surge = _gaussian_bump(t, c_main, w_main)
    # Secondary surges: broader, far below the peak.
    for _ in range(max(0, n_surges - 1)):
        c = rng.uniform(0.1, 0.9) * duration
        w = rng.uniform(*secondary_width)
        a = rng.uniform(*secondary_amp)
        surge += a * _gaussian_bump(t, c, w)
    surge = surge / max(surge.max(), 1e-12)

    # Solve the baseline so the mean hits peak/peak_to_mean.
    target_mean = peak_rps / peak_to_mean
    surge_mean = float(surge.mean()) * peak_rps
    base_level = max(0.02 * peak_rps, target_mean - surge_mean)
    noise = 1.0 + 0.15 * rng.standard_normal(t.size)
    rates = np.clip(base_level * noise, 0.0, None) + peak_rps * surge
    rates *= peak_rps / rates.max()
    return _sample_from_rates("azure", rates, bin_seconds, rng)


def wiki_trace(
    peak_rps: float,
    duration: float = 3600.0,
    day_seconds: float = 1200.0,
    seed: int = 0,
    bin_seconds: float = 1.0,
    low_fraction: float = 0.25,
) -> Trace:
    """A Wikipedia-like diurnal trace: sustained high plateaus.

    The real trace spans 5 days with ~16 high hours per day; for simulation
    economy the "day" length is compressible (``day_seconds``) while keeping
    the 2/3-high duty cycle.  ``low_fraction`` sets the trough rate relative
    to the peak.
    """
    rng = np.random.default_rng(seed)
    t = (np.arange(int(duration / bin_seconds)) + 0.5) * bin_seconds
    s = np.sin(2 * np.pi * t / day_seconds)
    # Shift/clip so ~2/3 of each day sits on the high plateau.
    shaped = np.clip((s + 0.5) / 1.2, 0.0, 1.0) ** 0.7
    rates = peak_rps * (low_fraction + (1 - low_fraction) * shaped)
    rates *= 1.0 + 0.08 * rng.standard_normal(t.size)
    rates = np.clip(rates, 0.0, None)
    rates *= peak_rps / rates.max()
    return _sample_from_rates("wiki", rates, bin_seconds, rng)


def twitter_trace(
    mean_rps: float,
    duration: float = 5400.0,
    seed: int = 0,
    bin_seconds: float = 1.0,
    sigma: float = 0.6,
    ar1: float = 0.97,
) -> Trace:
    """A Twitter-like erratic, dense trace.

    A lognormal AR(1) rate process: dense (high mean) and erratic (heavy
    swings with strong autocorrelation), normalised to ``mean_rps``.
    """
    if mean_rps <= 0:
        raise ValueError("mean_rps must be positive")
    rng = np.random.default_rng(seed)
    n = int(duration / bin_seconds)
    shocks = rng.standard_normal(n) * sigma * np.sqrt(1 - ar1**2)
    x = np.empty(n)
    acc = 0.0
    for i in range(n):  # AR(1) recursion is inherently sequential
        acc = ar1 * acc + shocks[i]
        x[i] = acc
    rates = np.exp(x)
    rates *= mean_rps / rates.mean()
    return _sample_from_rates("twitter", rates, bin_seconds, rng)


def poisson_trace(
    rate_rps: float,
    duration: float = 1500.0,
    seed: int = 0,
    bin_seconds: float = 1.0,
) -> Trace:
    """A homogeneous Poisson trace (the Fig 13a exhaustion workload)."""
    if rate_rps <= 0:
        raise ValueError("rate must be positive")
    rng = np.random.default_rng(seed)
    n = int(duration / bin_seconds)
    rates = np.full(n, rate_rps, dtype=np.float64)
    return _sample_from_rates("poisson", rates, bin_seconds, rng)


def constant_trace(
    rate_rps: float,
    duration: float,
    bin_seconds: float = 1.0,
) -> Trace:
    """Deterministic, evenly spaced arrivals — for tests and examples."""
    if rate_rps <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    n = int(rate_rps * duration)
    arrivals = (np.arange(n) + 0.5) / rate_rps
    arrivals = arrivals[arrivals < duration]
    rates = np.full(int(np.ceil(duration / bin_seconds)), rate_rps)
    return Trace(
        name="constant",
        arrivals=arrivals,
        duration=float(duration),
        bin_rates=rates,
        bin_seconds=bin_seconds,
    )
