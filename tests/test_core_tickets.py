"""Tests for ticket-value maintenance (paper Eqs. 6-8)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.tickets import TicketBook, sigmoid_increase


class TestSigmoid:
    def test_average_exec_time_gives_half(self):
        assert sigmoid_increase(1.0, 1.0) == pytest.approx(0.5)

    def test_expensive_update_increases_more(self):
        cheap = sigmoid_increase(0.5, 1.0)
        pricey = sigmoid_increase(2.0, 1.0)
        assert 0.0 < cheap < 0.5 < pricey < 1.0

    def test_extreme_gaps_saturate(self):
        assert sigmoid_increase(1000.0, 0.0) == 1.0
        assert sigmoid_increase(0.0, 1000.0) == 0.0

    @given(
        st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100)
    )
    def test_property_range(self, ue, avg):
        assert 0.0 <= sigmoid_increase(ue, avg) <= 1.0


class TestTicketDynamics:
    def test_query_access_decreases_ticket(self):
        book = TicketBook(4)
        book.on_query_access(0, cpu_utilization=0.3)
        assert book._tickets[0] == pytest.approx(-0.3)

    def test_update_increases_ticket(self):
        book = TicketBook(4)
        book.on_update(0, update_exec_time=1.0)
        # First observation: ue_avg == ue, sigmoid gap 0 -> +0.5
        assert book._tickets[0] == pytest.approx(0.5)

    def test_eq8_forgetting_recurrence(self):
        book = TicketBook(2, forgetting=0.9)
        book.on_update(0, update_exec_time=1.0)  # T = 0*0.9 + 0.5
        first = book._tickets[0]
        book.on_query_access(0, cpu_utilization=0.2)  # T = 0.5*0.9 - 0.2
        assert book._tickets[0] == pytest.approx(first * 0.9 - 0.2)

    def test_forgetting_only_applies_per_event_on_that_item(self):
        book = TicketBook(2, forgetting=0.5)
        book.on_update(0, update_exec_time=1.0)
        before = book._tickets[1]
        book.on_update(0, update_exec_time=1.0)  # events on item 0 only
        assert book._tickets[1] == before == 0.0

    def test_running_average_exec_time(self):
        book = TicketBook(2)
        book.on_update(0, update_exec_time=1.0)
        book.on_update(1, update_exec_time=3.0)
        assert book.average_update_exec_time == pytest.approx(2.0)

    def test_negative_utilization_rejected(self):
        book = TicketBook(2)
        with pytest.raises(ValueError):
            book.on_query_access(0, cpu_utilization=-0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TicketBook(0)
        with pytest.raises(ValueError):
            TicketBook(4, forgetting=0.0)


class TestLotteryCoupling:
    def test_negative_tickets_have_zero_probability(self):
        """The zero-clamp deviation: query-dominated items are never
        picked (see DESIGN.md)."""
        book = TicketBook(3)
        book.on_query_access(0, cpu_utilization=0.5)  # ticket -0.5
        book.on_update(1, update_exec_time=1.0)  # ticket +0.5
        rng = random.Random(0)
        draws = {book.lottery.sample(rng) for _ in range(100)}
        assert draws == {1}

    def test_no_positive_ticket_means_no_victim(self):
        book = TicketBook(3)
        book.on_query_access(0, cpu_utilization=0.5)
        assert book.lottery.sample(random.Random(0)) is None

    def test_update_dominated_items_proportional(self):
        book = TicketBook(2)
        book.on_update(0, update_exec_time=1.0)
        for _ in range(4):
            book.on_update(1, update_exec_time=1.0)
        weights = book.lottery._weights
        assert weights[1] > weights[0] > 0

    def test_threshold_walk_exposes_protected_items(self):
        book = TicketBook(2)
        book.on_query_access(0, cpu_utilization=1.0)  # item 0: ticket -1.0
        book.on_query_access(1, cpu_utilization=0.2)  # item 1: ticket -0.2
        assert book.lottery.sample(random.Random(0)) is None
        book.lower_threshold(0.5)  # tau -0.5: item 1 (-0.2) now exposed
        assert book.lottery.sample(random.Random(0)) == 1
        book.lower_threshold(0.6)  # tau floored at the minimum (-1.0)
        assert book.threshold == pytest.approx(-1.0)
        # Item 0 sits exactly at tau -> weight 0; item 1 remains eligible.
        draws = {book.lottery.sample(random.Random(k)) for k in range(20)}
        assert draws == {1}

    def test_threshold_floor_is_min_ticket(self):
        book = TicketBook(2)
        book.on_query_access(0, cpu_utilization=0.4)
        book.lower_threshold(100.0)
        assert book.threshold == pytest.approx(-0.4)

    def test_raise_threshold_ceiling_is_zero(self):
        book = TicketBook(2)
        book.on_query_access(0, cpu_utilization=0.4)
        book.lower_threshold(0.4)
        book.raise_threshold(5.0)
        assert book.threshold == 0.0

    def test_threshold_step_validation(self):
        book = TicketBook(2)
        with pytest.raises(ValueError):
            book.lower_threshold(0.0)
        with pytest.raises(ValueError):
            book.raise_threshold(-1.0)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.sampled_from(["query", "update"]),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_property_weights_track_clamped_tickets(self, events):
        book = TicketBook(8)
        for item_id, kind in events:
            if kind == "query":
                book.on_query_access(item_id, cpu_utilization=0.25)
            else:
                book.on_update(item_id, update_exec_time=1.0)
        weights = book.lottery._weights
        for item_id in range(8):
            expected = max(0.0, book._tickets[item_id] - book.threshold)
            assert weights[item_id] == pytest.approx(expected, abs=1e-9)
