"""Lottery scheduling over data items (Waldspurger & Weihl).

Update Frequency Modulation picks its degradation victim "randomly …
with probability proportional to the ticket value of the data item"
(Section 3.4.1), at O(log N_d) per pick.  We keep the weights in a
plain list and draw by bisecting their running sums: a weight update
is O(1), and a draw is one O(log n) bisect over a cumulative table
that ``itertools.accumulate`` builds in C, O(n), on the first draw
after a mutation.  Weights never change inside a Degrade signal, so
one table serves all of the signal's draws.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate
from typing import List, Optional


class LotteryScheduler:
    """Weighted random sampling over ``n`` slots with O(1) updates.

    Weights must be non-negative; a zero-weight slot is never drawn.
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self._n = n
        self._weights = [0.0] * n
        # Left-to-right running sums of ``_weights``; None after a
        # mutation until the next draw or total rebuilds it.
        self._cumulative: Optional[List[float]] = None

    def __len__(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        """Sum of all weights."""
        cumulative = self._cumulative
        if cumulative is None:
            cumulative = self._cumulative = list(accumulate(self._weights))
        return cumulative[-1]

    def set_weight(self, index: int, weight: float) -> None:
        """Set slot ``index`` to ``weight`` (>= 0) in O(1)."""
        if not 0 <= index < self._n:
            raise IndexError(f"index {index} out of range [0, {self._n})")
        if weight < 0:
            raise ValueError("weights must be non-negative")
        if self._weights[index] == weight:
            return
        self._weights[index] = weight
        self._cumulative = None

    def sample(self, rng: random.Random) -> Optional[int]:
        """Draw a slot with probability proportional to its weight.

        Returns None when all weights are zero.  The drawn slot is the
        first whose running sum reaches ``u * total``.
        """
        cumulative = self._cumulative
        if cumulative is None:
            cumulative = self._cumulative = list(accumulate(self._weights))
        total = cumulative[-1]
        if total <= 0:
            return None
        index = bisect_left(cumulative, rng.random() * total)
        if index >= self._n:
            index = self._n - 1
        # A zero-weight slot is reached only by a target of exactly 0.0.
        if self._weights[index] <= 0:
            candidates = [i for i, w in enumerate(self._weights) if w > 0]
            if not candidates:
                return None
            return rng.choice(candidates)
        return index

    def rebuild(self, weights: List[float]) -> None:
        """Replace all weights at once."""
        if len(weights) != self._n:
            raise ValueError("weight vector length mismatch")
        if min(weights) < 0:
            raise ValueError("weights must be non-negative")
        self._weights = list(weights)
        self._cumulative = None
