"""Tests for data items and the drop-based staleness lag."""

import pytest
from hypothesis import given, strategies as st

from repro.db.items import DataItem, ItemTable


def make_item(**kwargs):
    defaults = dict(item_id=0, ideal_period=10.0, update_exec_time=0.1)
    defaults.update(kwargs)
    return DataItem(**defaults)


def one_item_table(**kwargs):
    return ItemTable([make_item(**kwargs)])


def upgrade_period(item, shrink):
    """Eq. 10 on one item, the per-item reference for the table's pass:
    ``pc_j <- max(pi_j, pc_j - shrink * pi_j)``."""
    item.current_period = max(
        item.ideal_period, item.current_period - shrink * item.ideal_period
    )


class TestDataItem:
    def test_initial_state_is_fresh(self):
        item = make_item()
        assert item.udrop == 0
        assert not item.current_period > item.ideal_period
        assert item.current_period == item.ideal_period

    def test_validation(self):
        with pytest.raises(ValueError):
            make_item(ideal_period=0.0)
        with pytest.raises(ValueError):
            make_item(update_exec_time=-1.0)
        with pytest.raises(ValueError):
            make_item(current_period=5.0)  # below ideal 10.0

    def test_queued_arrival_does_not_stale(self):
        """Only *dropped* arrivals count toward Udrop (paper Eq. 1)."""
        item = make_item()
        item.record_arrival()
        assert item.udrop == 0  # queued for execution, not dropped

    def test_drop_increases_lag(self):
        item = make_item()
        item.record_arrival()
        item.record_drop()
        assert item.udrop == 1
        item.record_arrival()
        item.record_drop()
        assert item.udrop == 2

    def test_applying_newest_update_clears_lag(self):
        item = make_item()
        for _ in range(3):
            item.record_arrival()
            item.record_drop()
        seq = item.record_arrival()
        item.apply_update(seq)
        assert item.udrop == 0

    def test_applying_stale_update_keeps_lag(self):
        item = make_item()
        old_seq = item.record_arrival()
        item.record_arrival()
        item.record_drop()
        item.apply_update(old_seq)  # older than the drop
        assert item.udrop == 1

    def test_apply_never_regresses_seq(self):
        item = make_item()
        first = item.record_arrival()
        second = item.record_arrival()
        item.apply_update(second)
        item.apply_update(first)  # out-of-order commit
        assert item.applied_seq == second

    def test_degrade_stretches_period(self):
        table = one_item_table()
        new_period = table.degrade(0, 0.1)
        assert new_period == pytest.approx(11.0)
        assert table[0].current_period > table[0].ideal_period
        assert table.degraded_count() == 1

    def test_upgrade_subtracts_in_ideal_units_with_floor(self):
        table = one_item_table()
        table.degrade(0, 0.1)  # 11.0
        table.upgrade_degraded(0.5)  # -5.0 -> floored at 10.0
        assert table[0].current_period == pytest.approx(10.0)
        assert not table[0].current_period > table[0].ideal_period
        assert table.degraded_count() == 0

    def test_deep_degradation_recovers_gradually(self):
        table = one_item_table()
        for _ in range(30):
            table.degrade(0, 0.1)
        deep = table[0].current_period
        table.upgrade_degraded(0.5)
        assert table[0].current_period == pytest.approx(deep - 5.0)
        assert table.degraded_count() == 1

    def test_reset_period(self):
        table = one_item_table()
        table.degrade(0, 0.5)
        table.set_period(0, table[0].ideal_period)
        assert table[0].current_period == table[0].ideal_period
        assert table.degraded_count() == 0

    @given(st.lists(st.sampled_from(["drop", "apply"]), min_size=1, max_size=60))
    def test_property_lag_never_negative_and_bounded_by_drops(self, ops):
        item = make_item()
        drops_since_apply = 0
        for op in ops:
            seq = item.record_arrival()
            if op == "drop":
                item.record_drop()
                drops_since_apply += 1
            else:
                item.apply_update(seq)
                drops_since_apply = 0
            assert item.udrop >= 0
            assert item.udrop == drops_since_apply


class TestItemTable:
    def test_uniform_builder(self):
        table = ItemTable.uniform(4, ideal_period=5.0, update_exec_time=0.1)
        assert len(table) == 4
        assert table[2].item_id == 2

    def test_requires_dense_ids(self):
        items = [make_item(item_id=0), make_item(item_id=2)]
        with pytest.raises(ValueError):
            ItemTable(items)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ItemTable([])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-3, max_value=1e3),
                st.floats(min_value=1.0, max_value=200.0),
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from([0.5, 0.1, 1.0, 1e-9, 1e-17, 3.0]),
    )
    def test_upgrade_degraded_matches_per_item_upgrade(self, rows, shrink):
        """The one-pass upgrade equals Eq. 10 applied to every degraded
        item, bit for bit, and reports the changed ids in id order."""

        def table():
            return ItemTable(
                [
                    make_item(item_id=i, ideal_period=pi, current_period=pi * stretch)
                    for i, (pi, stretch) in enumerate(rows)
                ]
            )

        fast, slow = table(), table()
        changed = fast.upgrade_degraded(shrink)
        assert fast.degraded_count() == len(fast.degraded_items())
        expected = []
        for item in slow.degraded_items():
            before = item.current_period
            upgrade_period(item, shrink)
            if item.current_period != before:
                expected.append(item.item_id)
        assert [item.item_id for item in changed] == expected
        assert all(item is fast[item.item_id] for item in changed)
        assert [item.current_period.hex() for item in fast] == [
            item.current_period.hex() for item in slow
        ]

    def test_upgrade_degraded_tie_keeps_ideal(self):
        table = ItemTable([make_item(ideal_period=10.0, current_period=15.0)])
        [item] = table.upgrade_degraded(0.5)
        assert item is table[0] and item.current_period == 10.0
        assert table.upgrade_degraded(0.5) == []

    def test_degraded_count_follows_period_writes(self):
        table = ItemTable.uniform(4, ideal_period=5.0, update_exec_time=0.1)
        assert table.degraded_count() == 0
        table.set_period(2, 7.5)
        table.degrade(3, 0.1)
        assert table.degraded_count() == 2 == len(table.degraded_items())
        table.set_period(2, 5.0)
        table.set_period(3, 6.0)  # still above the ideal period
        assert table.degraded_count() == 1 == len(table.degraded_items())
        with pytest.raises(ValueError):
            table.set_period(1, 4.0)
        with pytest.raises(ValueError):
            table.degrade(1, 1e-20)  # 1 + factor rounds to 1
        table.upgrade_degraded(10.0)
        assert table.degraded_count() == 0 == len(table.degraded_items())
        assert one_item_table(current_period=15.0).degraded_count() == 1

    def test_degraded_items_and_totals(self):
        table = ItemTable.uniform(3, ideal_period=5.0, update_exec_time=0.1)
        table.degrade(1, 0.2)
        assert [item.item_id for item in table.degraded_items()] == [1]
        table[0].record_arrival()
        table[0].record_drop()
        totals = table.totals()
        assert totals["arrivals"] == 1
        assert totals["dropped"] == 1
