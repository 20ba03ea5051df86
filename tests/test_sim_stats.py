"""Tests for the statistics helpers."""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import OnlineStats, ordered_sum

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestOnlineStats:
    def test_empty(self):
        stats = OnlineStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0

    def test_single_value(self):
        stats = OnlineStats()
        stats.add(5.0)
        assert stats.mean == 5.0
        assert stats.variance == 0.0
        assert stats.as_dict()["min"] == 5.0
        assert stats.as_dict()["max"] == 5.0

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_property_matches_batch_statistics(self, values):
        stats = OnlineStats()
        stats.extend(values)
        assert stats.count == len(values)
        assert stats.mean == pytest.approx(statistics.fmean(values), abs=1e-6, rel=1e-9)
        assert stats.variance == pytest.approx(
            statistics.pvariance(values), abs=1e-3, rel=1e-6
        )
        assert stats.as_dict()["min"] == min(values)
        assert stats.as_dict()["max"] == max(values)

    def test_stdev_is_sqrt_variance(self):
        stats = OnlineStats()
        stats.extend([1.0, 2.0, 3.0, 4.0])
        assert stats.stdev == pytest.approx(math.sqrt(stats.variance))


class TestOrderedSum:
    def test_adds_left_to_right_without_compensation(self):
        """1e16 + 1.0 rounds back to 1e16, so the plain left-to-right
        sum is 0.0; a compensated sum (``sum()`` from Python 3.12,
        ``math.fsum``) gives 1.0."""
        values = [1e16, 1.0, -1e16]
        assert ordered_sum(values) == 0.0
        assert math.fsum(values) == 1.0

    @given(st.lists(finite_floats, max_size=50))
    def test_matches_an_explicit_loop(self, values):
        total = 0.0
        for value in values:
            total += value
        assert ordered_sum(values) == total
        assert ordered_sum(iter(values)) == total
