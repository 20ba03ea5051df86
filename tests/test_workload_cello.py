"""Tests for the synthetic cello99a-like trace generator."""

import pytest

from repro.sim.rng import RandomStreams
from repro.workload.cello import CelloConfig, generate_cello_trace


def small_config(**overrides):
    defaults = dict(
        horizon=500.0,
        n_items=64,
        query_utilization=0.5,
        mean_service=0.05,
        zipf_skew=1.3,
        burst_factor=4.0,
        normal_dwell=120.0,
        burst_dwell=20.0,
    )
    defaults.update(overrides)
    return CelloConfig(**defaults)


def test_records_within_horizon_and_sorted():
    reads = generate_cello_trace(small_config(), RandomStreams(1))
    arrivals = reads.arrivals
    assert arrivals
    assert len(reads.service_times) == len(reads.regions) == len(arrivals)
    assert arrivals == sorted(arrivals)
    assert arrivals[-1] <= 500.0
    assert all(0 <= region < 64 for region in reads.regions)
    assert all(service > 0 for service in reads.service_times)


def test_deterministic_given_seed():
    a = generate_cello_trace(small_config(), RandomStreams(7))
    b = generate_cello_trace(small_config(), RandomStreams(7))
    assert a == b


def test_different_seeds_differ():
    a = generate_cello_trace(small_config(), RandomStreams(1))
    b = generate_cello_trace(small_config(), RandomStreams(2))
    assert a != b


def test_utilization_matches_target():
    config = small_config(horizon=5000.0)
    reads = generate_cello_trace(config, RandomStreams(3))
    demand = sum(reads.service_times)
    assert demand / config.horizon == pytest.approx(0.5, rel=0.15)


def test_mean_rate_derivation():
    config = small_config()
    assert config.mean_arrival_rate == pytest.approx(10.0)



def access_histogram(reads, n_items):
    """Reads per region — the paper's Fig. 3(a) data."""
    counts = [0] * n_items
    for region in reads.regions:
        counts[region] += 1
    return counts

def test_histogram_is_skewed():
    config = small_config(horizon=2000.0, zipf_skew=1.3)
    reads = generate_cello_trace(config, RandomStreams(5))
    histogram = access_histogram(reads, config.n_items)
    assert sum(histogram) == len(reads.arrivals)
    top = max(histogram)
    mean = sum(histogram) / len(histogram)
    assert top > 5 * mean  # heavy skew: hottest region way above average


def test_zero_skew_spreads_accesses():
    config = small_config(horizon=2000.0, zipf_skew=0.0)
    reads = generate_cello_trace(config, RandomStreams(5))
    histogram = access_histogram(reads, config.n_items)
    top = max(histogram)
    mean = sum(histogram) / len(histogram)
    assert top < 2.5 * mean


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(horizon=0.0)
    with pytest.raises(ValueError):
        small_config(n_items=0)
    with pytest.raises(ValueError):
        small_config(mean_service=0.0)
