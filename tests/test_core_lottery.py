"""Tests for the cumulative-table lottery scheduler."""

import random
from bisect import bisect_left
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import tickets as tickets_module
from repro.core.lottery import LotteryScheduler
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.fleet.runner import FleetConfig, run_fleet


class TestWeights:
    def test_initial_total_zero(self):
        lottery = LotteryScheduler(8)
        assert lottery.total == 0.0
        assert lottery.sample(random.Random(1)) is None

    def test_set_and_read_weight(self):
        lottery = LotteryScheduler(4)
        lottery.set_weight(2, 3.5)
        assert lottery._weights == [0.0, 0.0, 3.5, 0.0]
        assert lottery.total == pytest.approx(3.5)

    def test_set_weight_back_to_zero(self):
        lottery = LotteryScheduler(4)
        lottery.set_weight(1, 1.0)
        lottery.set_weight(3, 2.0)
        lottery.set_weight(1, 0.0)
        assert lottery._weights == [0.0, 0.0, 0.0, 2.0]
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
        assert lottery._weights == [1.0, 2.0, 3.0]

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


class FenwickLottery:
    """The Fenwick-tree sampler this scheduler replaced, kept as the
    draw-for-draw reference: ancestor-walk updates, a descent per draw,
    and a total summed in descent order."""

    def __init__(self, n):
        self._n = n
        self._tree = [0.0] * (n + 1)
        self._weights = [0.0] * n
        bit = 1
        while bit << 1 <= n:
            bit <<= 1
        self._top_bit = bit

    def set_weight(self, index, weight):
        delta = weight - self._weights[index]
        if delta == 0:
            return
        self._weights[index] = weight
        position = index + 1
        while position <= self._n:
            self._tree[position] += delta
            position += position & (-position)

    def rebuild(self, weights):
        n = self._n
        weights = list(weights)
        tree = [0.0] * (n + 1)
        tree[1::2] = [0.0 + weight for weight in weights[0::2]]
        for position in range(2, n + 1, 2):
            half = (position & -position) >> 1
            total = tree[position - half]
            for weight in weights[position - half : position]:
                total += weight
            tree[position] = total
        self._weights = weights
        self._tree = tree

    def sample(self, rng):
        tree, n = self._tree, self._n
        total = 0.0
        position = n
        while position > 0:
            total += tree[position]
            position -= position & (-position)
        if total <= 0:
            return None
        remaining = rng.random() * total
        position, bit = 0, self._top_bit
        while bit:
            nxt = position + bit
            if nxt <= n and tree[nxt] < remaining:
                remaining -= tree[nxt]
                position = nxt
            bit >>= 1
        index = min(position, n - 1)
        if self._weights[index] <= 0:
            candidates = [i for i, w in enumerate(self._weights) if w > 0]
            if not candidates:
                return None
            return rng.choice(candidates)
        return index


def _ticket_weight(rng):
    """A shifted ticket: zero for a query-dominated item, else the
    forgetting recurrence's range of update-dominated values."""
    if rng.random() < 0.3:
        return 0.0
    return rng.random() * 10 ** rng.uniform(-3, 1)


class TestDrawEquality:
    @pytest.mark.parametrize("n", [512, 1024])
    def test_bursts_draw_like_fenwick(self, n):
        """Bursts of ticket updates and rebuilds interleaved with bursts
        of draws: every draw picks the Fenwick sampler's slot and
        leaves the generator in the same state."""
        rng = random.Random(n)
        lottery, reference = LotteryScheduler(n), FenwickLottery(n)
        draw_rng, reference_rng = random.Random(1), random.Random(1)
        draws = 0
        for burst in range(40):
            if burst % 8 == 7:
                weights = [_ticket_weight(rng) for _ in range(n)]
                lottery.rebuild(weights)
                reference.rebuild(weights)
            for _ in range(rng.randrange(1, 3 * n)):
                index, weight = rng.randrange(n), _ticket_weight(rng)
                lottery.set_weight(index, weight)
                reference.set_weight(index, weight)
            for _ in range(200):
                assert lottery.sample(draw_rng) == reference.sample(reference_rng)
                assert draw_rng.getstate() == reference_rng.getstate()
                draws += 1
        assert draws == 8000

    def test_sample_is_bisect_over_running_sums(self):
        rng = random.Random(3)
        weights = [_ticket_weight(rng) for _ in range(300)]
        lottery = LotteryScheduler(len(weights))
        lottery.rebuild(weights)
        cumulative = list(accumulate(weights))
        assert lottery.total == cumulative[-1]
        for seed in range(200):
            target = random.Random(seed).random() * cumulative[-1]
            expected = bisect_left(cumulative, target)
            assert lottery.sample(random.Random(seed)) == expected


class TestRebuild:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 64, 100, 511, 1024, 1025])
    def test_rebuild_sizes_and_zeros(self, n):
        """Rebuilt weights with zeros and six decades of magnitude, at
        sizes around powers of two: the total is the running sum and
        every draw picks the Fenwick reference's slot."""
        rng = random.Random(n)
        weights = [
            0.0 if rng.random() < 0.3 else 10 ** rng.uniform(-6, 3) for _ in range(n)
        ]
        lottery, reference = LotteryScheduler(n), FenwickLottery(n)
        lottery.rebuild(weights)
        reference.rebuild(weights)
        assert lottery._weights == weights
        assert lottery.total == list(accumulate(weights))[-1]
        rng_a, rng_b = random.Random(n + 1), random.Random(n + 1)
        assert [lottery.sample(rng_a) for _ in range(200)] == [
            reference.sample(rng_b) for _ in range(200)
        ]


class _ShadowLottery:
    """Draws from the scheduler and the Fenwick reference under one
    generator state and counts the draws where they disagree."""

    draws = 0
    mismatches = 0

    def __init__(self, n):
        self._lottery = LotteryScheduler(n)
        self._reference = FenwickLottery(n)

    def weights(self):
        return list(self._lottery._weights)

    def set_weight(self, index, weight):
        self._lottery.set_weight(index, weight)
        self._reference.set_weight(index, weight)

    def rebuild(self, weights):
        self._lottery.rebuild(weights)
        self._reference.rebuild(weights)

    def sample(self, rng):
        state = rng.getstate()
        drawn = self._lottery.sample(rng)
        after = rng.getstate()
        rng.setstate(state)
        expected = self._reference.sample(rng)
        cls = type(self)
        cls.draws += 1
        if drawn != expected or rng.getstate() != after:
            cls.mismatches += 1
        return drawn


class TestShadowRuns:
    """Whole runs with every ticket book's lottery shadowed by the
    Fenwick reference."""

    @pytest.fixture
    def shadow(self, monkeypatch):
        monkeypatch.setattr(tickets_module, "LotteryScheduler", _ShadowLottery)
        monkeypatch.setattr(_ShadowLottery, "draws", 0)
        monkeypatch.setattr(_ShadowLottery, "mismatches", 0)
        return _ShadowLottery

    @pytest.mark.parametrize("trace", ["med-unif", "high-unif"])
    def test_unit_cell_draws_like_fenwick(self, shadow, trace):
        run_experiment(
            ExperimentConfig(
                policy="unit", update_trace=trace, seed=7, scale=SCALES["small"]
            )
        )
        assert shadow.draws > 10_000
        assert shadow.mismatches == 0

    def test_freshness_routed_fleet_draws_like_fenwick(self, shadow):
        base = ExperimentConfig(
            policy="unit", update_trace="med-unif", seed=7, scale=SCALES["smoke"]
        )
        run_fleet(
            FleetConfig(base=base, n_shards=2, replication=2, router_policy="freshness")
        )
        assert shadow.draws > 0
        assert shadow.mismatches == 0
