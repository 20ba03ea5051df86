"""Lottery scheduling over data items (Waldspurger & Weihl).

Update Frequency Modulation picks its degradation victim "randomly …
with probability proportional to the ticket value of the data item"
(Section 3.4.1), at O(log N_d) per pick.  We implement the weighted
sampling with a Fenwick (binary indexed) tree: point updates and
prefix-descent sampling are both O(log n).
"""

from __future__ import annotations

import random
from typing import List, Optional


class LotteryScheduler:
    """Weighted random sampling over ``n`` slots with O(log n) updates.

    Weights must be non-negative; a zero-weight slot is never drawn.
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self._n = n
        self._tree = [0.0] * (n + 1)  # 1-based Fenwick tree
        self._weights = [0.0] * n
        # Highest power of two <= n: the Fenwick descent's starting
        # stride, fixed for the tree's lifetime.
        bit = 1
        while bit << 1 <= n:
            bit <<= 1
        self._top_bit = bit
        # Cached total with a dirty flag: consecutive samples between
        # weight mutations (the degrade loop's resampling) skip the
        # descent resummation.  The cache is always refreshed by the
        # same descent-order loop as :meth:`_prefix_sum`, so the cached
        # float is bit-identical to an eager recomputation.
        self._total_cache = 0.0
        self._total_dirty = False

    def __len__(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        """Sum of all weights."""
        if self._total_dirty:
            self._total_cache = self._prefix_sum(self._n)
            self._total_dirty = False
        return self._total_cache

    def weights(self) -> List[float]:
        """Copy of all weights."""
        return list(self._weights)

    def set_weight(self, index: int, weight: float) -> None:
        """Set slot ``index`` to ``weight`` (>= 0) in O(log n)."""
        if not 0 <= index < self._n:
            raise IndexError(f"index {index} out of range [0, {self._n})")
        if weight < 0:
            raise ValueError("weights must be non-negative")
        delta = weight - self._weights[index]
        if delta == 0:
            return
        self._weights[index] = weight
        self._total_dirty = True
        position = index + 1
        while position <= self._n:
            self._tree[position] += delta
            position += position & (-position)

    def _prefix_sum(self, count: int) -> float:
        total = 0.0
        position = count
        while position > 0:
            total += self._tree[position]
            position -= position & (-position)
        return total

    def sample(self, rng: random.Random) -> Optional[int]:
        """Draw a slot with probability proportional to its weight.

        Returns None when all weights are zero.  Uses Fenwick descent:
        walk down the implicit tree consuming the drawn mass, O(log n).
        The total comes from the dirty-flag cache (refilled inline in
        the same descent order as :meth:`_prefix_sum`) — a frequent
        call on the degradation path, so repeated picks between weight
        mutations skip both the method hops and the resummation.
        """
        tree = self._tree
        n = self._n
        if self._total_dirty:
            total = 0.0
            position = n
            while position > 0:
                total += tree[position]
                position -= position & (-position)
            self._total_cache = total
            self._total_dirty = False
        else:
            total = self._total_cache
        if total <= 0:
            return None
        target = rng.random() * total

        position = 0
        bit = self._top_bit
        remaining = target
        while bit:
            nxt = position + bit
            if nxt <= n and tree[nxt] < remaining:
                remaining -= tree[nxt]
                position = nxt
            bit >>= 1
        index = position  # position is the count of slots strictly before
        if index >= n:
            index = n - 1
        # Guard against landing on a zero-weight slot through float error.
        if self._weights[index] <= 0:
            candidates = [i for i, w in enumerate(self._weights) if w > 0]
            if not candidates:
                return None
            return rng.choice(candidates)
        return index

    def rebuild(self, weights: List[float]) -> None:
        """Replace all weights at once.

        Node ``p`` holds the left-to-right float sum of the slots
        ``(p - lowbit(p), p]``, exactly as :meth:`set_weight` calls made
        in slot order on an all-zero tree would leave it.  Its left half
        is node ``p - lowbit(p)/2``, already built, so each node
        continues that stored sum over its right half only: the same
        additions in the same order, hence bit-identical nodes, with no
        ancestor walks.  An explicit loop, not ``sum()``: from Python
        3.12 ``sum`` of floats uses compensated summation and would
        round differently.
        """
        n = self._n
        if len(weights) != n:
            raise ValueError("weight vector length mismatch")
        if any(weight < 0 for weight in weights):
            raise ValueError("weights must be non-negative")
        weights = list(weights)
        tree = [0.0] * (n + 1)
        # Odd positions cover one slot: its weight summed from zero.
        tree[1::2] = [0.0 + weight for weight in weights[0::2]]
        for position in range(2, n + 1, 2):
            half = (position & -position) >> 1
            total = tree[position - half]
            for weight in weights[position - half : position]:
                total += weight
            tree[position] = total
        self._weights = weights
        self._tree = tree
        self._total_dirty = True
