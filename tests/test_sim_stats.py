"""Tests for the statistics helpers."""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import OnlineStats

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
