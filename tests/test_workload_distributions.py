"""Tests for the random-variate helpers."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.distributions import (
    BurstyArrivalProcess,
    CumulativeSampler,
    exponential,
    lognormal_from_mean_cv,
    shuffled_zipf_weights,
    zipf_weights,
)


class TestZipf:
    def test_weights_normalized(self):
        weights = zipf_weights(100, 1.0)
        assert sum(weights) == pytest.approx(1.0)

    def test_zero_skew_is_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert all(w == pytest.approx(0.1) for w in weights)

    def test_monotone_decreasing(self):
        weights = zipf_weights(50, 1.3)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_higher_skew_concentrates_head(self):
        mild = zipf_weights(100, 0.5)
        sharp = zipf_weights(100, 2.0)
        assert sharp[0] > mild[0]

    def test_shuffled_preserves_multiset(self):
        rng = random.Random(3)
        shuffled = shuffled_zipf_weights(20, 1.0, rng)
        assert sorted(shuffled) == sorted(zipf_weights(20, 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(5, -1.0)


class TestLognormal:
    @given(
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=20)
    def test_property_positive(self, mean, cv):
        rng = random.Random(0)
        assert lognormal_from_mean_cv(mean, cv, rng) > 0

    def test_zero_cv_is_deterministic(self):
        rng = random.Random(0)
        assert lognormal_from_mean_cv(2.5, 0.0, rng) == 2.5

    def test_sample_mean_converges(self):
        rng = random.Random(7)
        samples = [lognormal_from_mean_cv(0.05, 1.0, rng) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(0.05, rel=0.05)

    def test_sample_cv_converges(self):
        rng = random.Random(7)
        samples = [lognormal_from_mean_cv(1.0, 0.5, rng) for _ in range(20000)]
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        assert math.sqrt(var) / mean == pytest.approx(0.5, rel=0.1)

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            lognormal_from_mean_cv(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            lognormal_from_mean_cv(1.0, -0.5, rng)


class TestExponential:
    def test_mean_converges(self):
        rng = random.Random(1)
        samples = [exponential(2.0, rng) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential(0.0, random.Random(0))


def mean_rate(process):
    """Long-run average arrival rate of a two-state bursty process."""
    weight_burst = process.burst_dwell / (process.burst_dwell + process.normal_dwell)
    return process.base_rate * (1.0 + (process.burst_factor - 1.0) * weight_burst)


class TestBurstyProcess:
    def test_mean_rate_formula(self):
        process = BurstyArrivalProcess(
            base_rate=1.0,
            burst_factor=4.0,
            normal_dwell=90.0,
            burst_dwell=10.0,
            rng=random.Random(0),
        )
        # burst weight 0.1: 1.0 * (1 + 3*0.1) = 1.3
        assert mean_rate(process) == pytest.approx(1.3)

    def test_arrivals_strictly_increasing_within_horizon(self):
        process = BurstyArrivalProcess(1.0, 4.0, 50.0, 10.0, random.Random(2))
        arrivals = process.arrivals_until(500.0)
        assert arrivals
        assert all(a < b for a, b in zip(arrivals, arrivals[1:]))
        assert arrivals[-1] <= 500.0

    def test_long_run_rate_matches(self):
        process = BurstyArrivalProcess(2.0, 5.0, 100.0, 20.0, random.Random(5))
        arrivals = process.arrivals_until(20000.0)
        rate = len(arrivals) / 20000.0
        assert rate == pytest.approx(mean_rate(process), rel=0.1)

    def test_bursts_create_rate_variance(self):
        """Per-window arrival counts must be overdispersed vs Poisson."""
        process = BurstyArrivalProcess(1.0, 10.0, 50.0, 25.0, random.Random(9))
        arrivals = process.arrivals_until(5000.0)
        window = 25.0
        counts = [0] * int(5000.0 / window)
        for arrival in arrivals:
            counts[min(len(counts) - 1, int(arrival / window))] += 1
        mean = sum(counts) / len(counts)
        var = sum((c - mean) ** 2 for c in counts) / len(counts)
        assert var > 2.0 * mean  # Poisson would give var == mean

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyArrivalProcess(0.0, 2.0, 1.0, 1.0, random.Random(0))
        with pytest.raises(ValueError):
            BurstyArrivalProcess(1.0, 0.5, 1.0, 1.0, random.Random(0))


class TestSamplers:
    def test_cumulative_sampler_matches_distribution(self):
        sampler = CumulativeSampler([1.0, 3.0])
        rng = random.Random(11)
        draws = [sampler.sample(rng) for _ in range(8000)]
        assert draws.count(1) / len(draws) == pytest.approx(0.75, abs=0.03)

    def test_cumulative_sampler_validation(self):
        with pytest.raises(ValueError):
            CumulativeSampler([])
        with pytest.raises(ValueError):
            CumulativeSampler([-1.0, 2.0])
        with pytest.raises(ValueError):
            CumulativeSampler([0.0, 0.0])
