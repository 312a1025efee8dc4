"""Tests for the metrics registry's counters and histograms."""

import pytest

from repro.telemetry import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestHistogram:
    def test_observe_and_mean(self):
        h = Histogram("lat", bounds=(1.0, 2.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        assert h.n == 3
        assert h.mean == pytest.approx(5.0 / 3)
        assert h.counts == [1, 1, 1]

    def test_quantile_exact_below_cap(self):
        h = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 1.5, 3.0):
            h.observe(v)
        assert h.exact
        assert h.quantile(0.5) == 0.6
        assert h.quantile(1.0) == 3.0
        assert h.quantile(0.0) == 0.5

    def test_tracked_quantile_stays_accurate_past_cap(self):
        h = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        h.RAW_SAMPLE_CAP = 3  # instance override: force early handover
        for v in (0.5, 0.6, 1.5, 3.0):
            h.observe(v)
        assert not h.exact
        # p50 is tracked: the P² estimator (seeded from the exact raw
        # prefix) keeps sample resolution instead of the 1.0 bucket edge.
        assert h.quantile(0.5) == 0.6
        # q=1.0 is untracked: bucket-resolution fallback.
        assert h.quantile(1.0) == 4.0
        # Aggregates never degrade.
        assert h.n == 4 and h.mean == pytest.approx(5.6 / 4)

    def test_untracked_overflow_bucket_reports_inf_past_cap(self):
        h = Histogram("lat", bounds=(1.0,))
        h.RAW_SAMPLE_CAP = 0
        h.observe(10.0)
        # 0.98 is not P²-tracked, so it falls back to the overflow
        # bucket's upper bound; tracked 0.99 keeps the sample value.
        assert h.quantile(0.98) == float("inf")
        assert h.quantile(0.99) == 10.0

    def test_overflow_value_exact_below_cap(self):
        h = Histogram("lat", bounds=(1.0,))
        h.observe(10.0)
        assert h.quantile(0.99) == 10.0

    def test_empty_quantile_is_zero(self):
        assert Histogram("lat").quantile(0.5) == 0.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", bounds=(2.0, 1.0))

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("lat").quantile(1.5)


class TestRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")


class TestP2Quantile:
    """The streaming estimator that replaces bucket fallback past the cap."""

    def test_seeded_estimate_exact_at_handover(self):
        from repro.telemetry.metrics import P2Quantile

        samples = sorted(float(i) for i in range(1, 101))
        est = P2Quantile.seeded(samples, 0.5)
        assert est.value() == pytest.approx(50.0, abs=1.0)

    def test_accuracy_on_large_lognormal_stream(self):
        import numpy as np

        from repro.telemetry.metrics import Histogram

        rng = np.random.default_rng(3)
        data = rng.lognormal(mean=-2.5, sigma=0.8, size=50_000)
        h = Histogram("lat")
        for v in data:
            h.observe(v)
        assert not h.exact
        for q in Histogram.TRACKED_QUANTILES:
            est = h.quantile(q)
            true = float(np.quantile(data, q))
            # P2 error is ~O(1/sqrt(n)); 2% is a loose ceiling — the old
            # bucket fallback would be off by the full bucket width.
            assert abs(est - true) / true < 0.02, (q, est, true)

    def test_beats_bucket_resolution(self):
        import numpy as np

        from repro.telemetry.metrics import Histogram

        rng = np.random.default_rng(4)
        data = rng.lognormal(mean=-2.5, sigma=0.8, size=20_000)
        h = Histogram("lat")
        for v in data:
            h.observe(v)
        true = float(np.quantile(data, 0.99))
        p2_err = abs(h.quantile(0.99) - true)
        # The bucket the p99 falls into (0.25..0.5): edge error is huge.
        bucket_err = abs(0.5 - true)
        assert p2_err < bucket_err / 2

    def test_monotone_across_tracked_quantiles(self):
        import numpy as np

        from repro.telemetry.metrics import Histogram

        rng = np.random.default_rng(5)
        h = Histogram("lat")
        for v in rng.exponential(0.1, size=10_000):
            h.observe(v)
        p50, p90, p99 = (h.quantile(q)
                         for q in Histogram.TRACKED_QUANTILES)
        assert p50 <= p90 <= p99

    def test_unseeded_bootstrap_under_five_samples(self):
        from repro.telemetry.metrics import P2Quantile

        est = P2Quantile(0.5)
        for v in (3.0, 1.0, 2.0):
            est.add(v)
        assert est.value() == 2.0

    def test_invalid_quantile_rejected(self):
        from repro.telemetry.metrics import P2Quantile

        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_heavily_duplicated_stream(self):
        # Near-constant latency streams (a warm pool at steady state)
        # produce long runs of identical samples; the P² marker update
        # divides by marker spacing, so duplicates are the classic way
        # to wreck the estimator.  It must stay pinned to the mode.
        from repro.telemetry.metrics import P2Quantile

        est = P2Quantile(0.5)
        for _ in range(1000):
            est.add(1.0)
        for _ in range(10):
            est.add(10.0)
        assert est.value() == pytest.approx(1.0, abs=0.05)

    def test_all_identical_samples(self):
        from repro.telemetry.metrics import P2Quantile

        est = P2Quantile(0.99)
        for _ in range(500):
            est.add(0.25)
        assert est.value() == 0.25

    def test_duplicated_stream_through_histogram(self):
        import numpy as np

        from repro.telemetry.metrics import Histogram

        rng = np.random.default_rng(8)
        data = np.array([0.1] * 8000 + [0.5] * 1500 + [2.0] * 500)
        rng.shuffle(data)
        h = Histogram("lat")
        for v in data:
            h.observe(v)
        assert not h.exact
        for q in Histogram.TRACKED_QUANTILES:
            est = h.quantile(q)
            true = float(np.quantile(data, q))
            assert est == pytest.approx(true, rel=0.10), (q, est, true)

    def test_handover_exactly_past_raw_cap(self):
        # n = RAW_SAMPLE_CAP + 1 is the seeding edge: the estimator is
        # seeded from the full exact prefix and has absorbed exactly one
        # streamed sample.  Accuracy must not fall off a cliff there.
        import numpy as np

        from repro.telemetry.metrics import Histogram

        rng = np.random.default_rng(0)
        data = rng.exponential(0.1, size=Histogram.RAW_SAMPLE_CAP + 1)
        h = Histogram("lat")
        for v in data:
            h.observe(v)
        assert h.n == Histogram.RAW_SAMPLE_CAP + 1
        assert not h.exact
        for q in Histogram.TRACKED_QUANTILES:
            est = h.quantile(q)
            true = float(np.quantile(data, q))
            assert est == pytest.approx(true, rel=0.02), (q, est, true)
