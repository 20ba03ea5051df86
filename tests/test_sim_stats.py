"""Tests for the statistics helpers."""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import OnlineStats, WindowedCounts

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
        assert stats.minimum == 5.0
        assert stats.maximum == 5.0

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_property_matches_batch_statistics(self, values):
        stats = OnlineStats()
        stats.extend(values)
        assert stats.count == len(values)
        assert stats.mean == pytest.approx(statistics.fmean(values), abs=1e-6, rel=1e-9)
        assert stats.variance == pytest.approx(
            statistics.pvariance(values), abs=1e-3, rel=1e-6
        )
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    def test_stdev_is_sqrt_variance(self):
        stats = OnlineStats()
        stats.extend([1.0, 2.0, 3.0, 4.0])
        assert stats.stdev == pytest.approx(math.sqrt(stats.variance))


class TestWindowedCounts:
    def test_counts_within_window(self):
        window = WindowedCounts(10.0)
        window.record(0.0, "a")
        window.record(5.0, "a")
        window.record(6.0, "b")
        assert window.counts(6.0) == {"a": 2, "b": 1}

    def test_eviction(self):
        window = WindowedCounts(10.0)
        window.record(0.0, "a")
        window.record(9.0, "b")
        assert window.counts(15.0) == {"b": 1}
        assert window.total(25.0) == 0

    def test_ratios(self):
        window = WindowedCounts(100.0)
        for _ in range(3):
            window.record(1.0, "x")
        window.record(1.0, "y")
        ratios = window.ratios(2.0)
        assert ratios["x"] == pytest.approx(0.75)
        assert ratios["y"] == pytest.approx(0.25)

    def test_empty_ratios(self):
        window = WindowedCounts(10.0)
        assert window.ratios(100.0) == {}

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            WindowedCounts(0.0)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=100), st.sampled_from("abc")),
            min_size=1,
            max_size=60,
        )
    )
    def test_property_total_matches_manual_count(self, events):
        events.sort(key=lambda e: e[0])
        window = WindowedCounts(20.0)
        for t, label in events:
            window.record(t, label)
        now = events[-1][0]
        expected = sum(1 for t, _ in events if t >= now - 20.0)
        assert window.total(now) == expected
