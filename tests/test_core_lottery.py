"""Tests for the Fenwick-tree lottery scheduler."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lottery import LotteryScheduler


class TestWeights:
    def test_initial_total_zero(self):
        lottery = LotteryScheduler(8)
        assert lottery.total == 0.0
        assert lottery.sample(random.Random(1)) is None

    def test_set_and_read_weight(self):
        lottery = LotteryScheduler(4)
        lottery.set_weight(2, 3.5)
        assert lottery.weights() == [0.0, 0.0, 3.5, 0.0]
        assert lottery.total == pytest.approx(3.5)

    def test_set_weight_back_to_zero(self):
        lottery = LotteryScheduler(4)
        lottery.set_weight(1, 1.0)
        lottery.set_weight(3, 2.0)
        lottery.set_weight(1, 0.0)
        assert lottery.weights() == [0.0, 0.0, 0.0, 2.0]
        rng = random.Random(0)
        assert {lottery.sample(rng) for _ in range(50)} == {3}

    def test_negative_weight_rejected(self):
        lottery = LotteryScheduler(4)
        with pytest.raises(ValueError):
            lottery.set_weight(0, -1.0)

    def test_index_bounds(self):
        lottery = LotteryScheduler(4)
        with pytest.raises(IndexError):
            lottery.set_weight(4, 1.0)

    def test_rebuild(self):
        lottery = LotteryScheduler(3)
        lottery.rebuild([1.0, 2.0, 3.0])
        assert lottery.total == pytest.approx(6.0)
        assert lottery.weights() == [1.0, 2.0, 3.0]

    def test_rebuild_length_mismatch(self):
        lottery = LotteryScheduler(3)
        with pytest.raises(ValueError):
            lottery.rebuild([1.0])


class TestSampling:
    def test_single_positive_slot_always_drawn(self):
        lottery = LotteryScheduler(5)
        lottery.set_weight(3, 1.0)
        rng = random.Random(0)
        assert all(lottery.sample(rng) == 3 for _ in range(50))

    def test_zero_weight_slot_never_drawn(self):
        lottery = LotteryScheduler(4)
        lottery.set_weight(0, 5.0)
        lottery.set_weight(2, 5.0)
        rng = random.Random(0)
        draws = {lottery.sample(rng) for _ in range(200)}
        assert draws <= {0, 2}

    def test_empirical_proportionality(self):
        lottery = LotteryScheduler(3)
        lottery.rebuild([1.0, 2.0, 7.0])
        rng = random.Random(42)
        counts = Counter(lottery.sample(rng) for _ in range(10000))
        assert counts[2] / 10000 == pytest.approx(0.7, abs=0.03)
        assert counts[1] / 10000 == pytest.approx(0.2, abs=0.03)
        assert counts[0] / 10000 == pytest.approx(0.1, abs=0.03)

    @settings(max_examples=30)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=64),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_property_sample_lands_on_positive_weight(self, weights, seed):
        lottery = LotteryScheduler(len(weights))
        lottery.rebuild(weights)
        rng = random.Random(seed)
        result = lottery.sample(rng)
        if sum(weights) <= 0:
            assert result is None
        else:
            assert result is not None
            assert weights[result] > 0

    @settings(max_examples=30)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=64))
    def test_property_total_matches_sum(self, weights):
        lottery = LotteryScheduler(len(weights))
        for index, weight in enumerate(weights):
            lottery.set_weight(index, weight)
        assert lottery.total == pytest.approx(sum(weights), rel=1e-9, abs=1e-9)

    def test_incremental_updates_match_rebuild(self):
        rng = random.Random(7)
        n = 33
        incremental = LotteryScheduler(n)
        reference = [0.0] * n
        for _ in range(500):
            index = rng.randrange(n)
            weight = rng.random() * 10
            incremental.set_weight(index, weight)
            reference[index] = weight
        rebuilt = LotteryScheduler(n)
        rebuilt.rebuild(reference)
        draw_rng_a, draw_rng_b = random.Random(1), random.Random(1)
        for _ in range(100):
            assert incremental.sample(draw_rng_a) == rebuilt.sample(draw_rng_b)


def _reference_tree(weights):
    """The Fenwick tree as per-slot ancestor walks build it, in slot order."""
    n = len(weights)
    tree = [0.0] * (n + 1)
    for index, weight in enumerate(weights):
        if weight:
            position = index + 1
            while position <= n:
                tree[position] += weight
                position += position & (-position)
    return tree


_WEIGHT = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e3),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestRebuild:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_WEIGHT, min_size=1, max_size=300), st.integers(0, 2**32 - 1))
    def test_property_rebuild_matches_ancestor_walk(self, weights, seed):
        """Every node is bit-identical to the ancestor-walk build, and the
        same generator draws the same slots from both trees."""
        lottery = LotteryScheduler(len(weights))
        lottery.rebuild(weights)
        assert [node.hex() for node in lottery._tree] == [
            node.hex() for node in _reference_tree(weights)
        ]
        reference = LotteryScheduler(len(weights))
        for index, weight in enumerate(weights):
            reference.set_weight(index, weight)
        assert [node.hex() for node in reference._tree] == [
            node.hex() for node in _reference_tree(weights)
        ]
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        assert [lottery.sample(rng_a) for _ in range(20)] == [
            reference.sample(rng_b) for _ in range(20)
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 64, 100, 511, 1024, 1025])
    def test_rebuild_sizes_and_zeros(self, n):
        rng = random.Random(n)
        weights = [
            0.0 if rng.random() < 0.3 else 10 ** rng.uniform(-6, 3) for _ in range(n)
        ]
        lottery = LotteryScheduler(n)
        lottery.rebuild(weights)
        assert [node.hex() for node in lottery._tree] == [
            node.hex() for node in _reference_tree(weights)
        ]
        assert lottery.weights() == weights
