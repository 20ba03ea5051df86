"""Tests for freshness (paper Eq. 1 and its strict-min aggregate)."""

import pytest
from hypothesis import given, strategies as st

from repro.db.freshness import lag_freshness, query_freshness
from repro.db.items import DataItem


def item_with_drops(drops: int) -> DataItem:
    item = DataItem(item_id=0, ideal_period=10.0, update_exec_time=0.1)
    for _ in range(drops):
        item.record_arrival()
        item.record_drop()
    return item


class TestLagFreshness:
    def test_fresh_item_is_one(self):
        assert lag_freshness(item_with_drops(0).udrop) == 1.0

    def test_eq1_values(self):
        assert lag_freshness(item_with_drops(1).udrop) == pytest.approx(0.5)
        assert lag_freshness(item_with_drops(3).udrop) == pytest.approx(0.25)

    @given(st.integers(min_value=0, max_value=100))
    def test_property_monotone_decreasing_in_drops(self, drops):
        f1 = lag_freshness(item_with_drops(drops).udrop)
        f2 = lag_freshness(item_with_drops(drops + 1).udrop)
        assert 0.0 < f2 < f1 <= 1.0

    def test_single_drop_fails_ninety_percent_requirement(self):
        """The paper's 90% requirement means one drop is already fatal."""
        assert lag_freshness(item_with_drops(1).udrop) < 0.9


class TestQueryFreshness:
    def test_min_aggregation(self):
        fresh = item_with_drops(0)
        stale = item_with_drops(1)
        stale.item_id = 1
        value = query_freshness([fresh, stale])
        assert value == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            query_freshness([])

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=8))
    def test_property_min_over_items(self, drop_counts):
        """Eq. 1 of the largest lag is the min over items, bit for bit."""
        items = []
        for index, drops in enumerate(drop_counts):
            item = item_with_drops(drops)
            item.item_id = index
            items.append(item)
        expected = min(lag_freshness(item.udrop) for item in items)
        assert query_freshness(items) == expected
