"""Ticket-value maintenance for Update Frequency Modulation
(paper Section 3.4.1).

Each data item carries a ticket value ``T_j``; the larger the ticket,
the more likely the item's updates get degraded.  Two event types move
tickets, both through the forgetting recurrence of Eq. 8:

* a **query access** to ``d_j`` *decreases* the ticket by
  ``DT_j = qe_i / qt_i`` (Eq. 6) — items needed by CPU-hungry queries
  are protected;
* an **update** of ``d_j`` *increases* the ticket by the sigmoid
  ``IT_j = 1 / (1 + e^(ue_avg - ue_j))`` (Eq. 7 as disambiguated in
  DESIGN.md) — expensive update streams are preferred victims.

Lottery sampling needs non-negative weights.  The paper shifts all
tickets by the minimum (``T'_j = T_j - T_min``); we instead clamp at
zero (``T'_j = max(0, T_j)``).  This is a deliberate deviation (see
DESIGN.md): under the min-shift, a heavily-queried item's victim
probability is proportional to its distance from the *most* protected
item — small, but over the hundreds of thousands of lottery picks a
scaled-down simulation needs, the hottest item is still drawn a
handful of times, and a single dropped update on it stales an entire
update period's worth of reads.  Clamping at zero keeps probability
proportional to tickets for update-dominated items (positive tickets)
and gives query-dominated items (negative tickets) exactly zero
probability, which is the selection behaviour the paper's Fig. 3
depicts.  It also makes every ticket mutation a plain O(1) lottery
weight store with no offset rebuilds.
"""

from __future__ import annotations

import math
from typing import List

from repro.core.lottery import LotteryScheduler
from repro.sim.stats import OnlineStats

DEFAULT_FORGETTING = 0.9  # C_forget (paper follows the literature)


def sigmoid_increase(update_exec_time: float, average_exec_time: float) -> float:
    """Eq. 7: map the exec-time gap to ``(0, 1)`` via the sigmoid."""
    gap = average_exec_time - update_exec_time
    # Guard the exponential for extreme gaps.
    if gap > 60.0:
        return 0.0
    if gap < -60.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(gap))


class TicketBook:
    """Per-item ticket values with forgetting and lottery sampling."""

    def __init__(
        self,
        n_items: int,
        forgetting: float = DEFAULT_FORGETTING,
    ) -> None:
        if n_items <= 0:
            raise ValueError("n_items must be positive")
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting factor must be in (0, 1]")
        self.forgetting = forgetting
        self._tickets: List[float] = [0.0] * n_items
        # Read by the modulator, which binds ``lottery.sample`` once per
        # Degrade signal; only this book writes its weights.
        self.lottery = LotteryScheduler(n_items)
        self._threshold = 0.0  # tau: lottery weight = max(0, T - tau)
        self.update_exec_stats = OnlineStats()

    def __len__(self) -> int:
        return len(self._tickets)

    @property
    def average_update_exec_time(self) -> float:
        """Running mean of observed update execution times (``ue_avg``)."""
        return self.update_exec_stats.mean

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------

    def on_query_access(self, item_id: int, cpu_utilization: float) -> None:
        """Query touching ``item_id``: Eq. 8 with decrement Eq. 6.

        Args:
            cpu_utilization: ``qe_i / qt_i`` of the accessing query.
        """
        if cpu_utilization < 0:
            raise ValueError("cpu utilization cannot be negative")
        new_value = self._tickets[item_id] * self.forgetting - cpu_utilization
        self._set_ticket(item_id, new_value)

    def on_update(self, item_id: int, update_exec_time: float) -> None:
        """Update on ``item_id``: Eq. 8 with increment Eq. 7.

        Also folds the execution time into the running ``ue_avg``.
        """
        self.update_exec_stats.add(update_exec_time)
        increase = sigmoid_increase(update_exec_time, self.average_update_exec_time)
        new_value = self._tickets[item_id] * self.forgetting + increase
        self._set_ticket(item_id, new_value)

    def _set_ticket(self, item_id: int, value: float) -> None:
        self._tickets[item_id] = value
        # Branch instead of ``max(0.0, ...)``: this runs on every query
        # access and every applied update, and the builtin call costs
        # more than the compare (``<= 0.0`` also normalizes -0.0 away,
        # exactly as ``max`` did by returning its first argument).
        weight = value - self._threshold
        if weight <= 0.0:
            weight = 0.0
        self.lottery.set_weight(item_id, weight)

    # ------------------------------------------------------------------
    # adaptive threshold (escalating degradation pressure)
    # ------------------------------------------------------------------

    @property
    def threshold(self) -> float:
        """Current shift ``tau``: items with ``T_j <= tau`` have zero
        victim probability.  ``tau = 0`` protects every query-dominated
        item; lowering it (never below the minimum ticket) walks the
        degradation frontier into progressively more protected items —
        the modulator does this when overload persists after all
        update-dominated items are fully degraded."""
        return self._threshold

    def lower_threshold(self, step: float) -> float:
        """Lower ``tau`` by ``step`` (floored at the minimum ticket, at
        which point the behaviour equals the paper's min-shift).
        Rebuilds the lottery in O(n).  Returns the new threshold."""
        if step <= 0:
            raise ValueError("step must be positive")
        floor = min(self._tickets)
        self._threshold = max(floor, self._threshold - step)
        self._rebuild_weights()
        return self._threshold

    def raise_threshold(self, step: float) -> float:
        """Raise ``tau`` back toward 0 (its ceiling) by ``step``."""
        if step <= 0:
            raise ValueError("step must be positive")
        self._threshold = min(0.0, self._threshold + step)
        self._rebuild_weights()
        return self._threshold

    def _rebuild_weights(self) -> None:
        tau = self._threshold
        # The compare, as in :meth:`_set_ticket`: same values as
        # ``max(0.0, t - tau)`` without a builtin call per ticket.
        self.lottery.rebuild(
            [w if (w := t - tau) > 0.0 else 0.0 for t in self._tickets]
        )
