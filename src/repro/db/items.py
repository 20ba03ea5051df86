"""Data items and the item table.

Each :class:`DataItem` tracks the source-side update stream (arrival
sequence numbers), the server-side application state (the highest
arrival reflected in the stored value), and the two periods the paper
manipulates: the *ideal* period ``pi_j`` at which the source produces
updates and the *current* period ``pc_j`` after update-frequency
modulation (``pc_j >= pi_j`` always).

Because updates are periodic snapshots of the item's current value —
not increments — applying the latest arrival makes every earlier
skipped arrival irrelevant (paper Section 1, footnote 2).  The lag
``Udrop_j`` is therefore simply ``arrivals - applied_seq``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List


@dataclasses.dataclass
class DataItem:
    """One data item ``d_j`` with its update stream state.

    Attributes:
        item_id: Dense id in ``[0, S)``.
        ideal_period: ``pi_j`` — source inter-arrival time of updates.
        update_exec_time: ``ue_j`` — CPU cost of applying one update.
        current_period: ``pc_j`` — modulated application period;
            starts equal to ``ideal_period`` and never drops below it.
            Once the item is in an :class:`ItemTable`, write it through
            the table (``degrade``, ``upgrade_degraded``, ``set_period``)
            so the table's degraded count stays exact.
    """

    item_id: int
    ideal_period: float
    update_exec_time: float
    current_period: float = dataclasses.field(default=0.0)

    # -- update-stream state --
    arrivals: int = 0  # total source arrivals so far
    applied_seq: int = 0  # highest arrival reflected in the stored value
    pending_drops: int = 0  # dropped arrivals newer than the stored value
    last_drop_seq: int = 0  # seqno of the newest dropped arrival

    # -- counters for analysis (Figure 3) --
    updates_executed: int = 0
    updates_dropped: int = 0
    query_accesses: int = 0

    def __post_init__(self) -> None:
        if self.ideal_period <= 0:
            raise ValueError("ideal_period must be positive")
        if self.update_exec_time <= 0:
            raise ValueError("update_exec_time must be positive")
        if not self.current_period:
            self.current_period = self.ideal_period
        if self.current_period < self.ideal_period:
            raise ValueError("current_period cannot be below ideal_period")

    @property
    def udrop(self) -> int:
        """``Udrop_j`` — updates *dropped* since the last successful
        update (paper Eq. 1's definition).

        An arrival that is merely queued for execution does not count:
        the paper's IMU and ODU achieve 100 % freshness by construction,
        so only arrivals the server decided not to apply can stale an
        item.
        """
        return self.pending_drops

    def record_arrival(self) -> int:
        """Register one source update arrival; returns its sequence number."""
        self.arrivals += 1
        return self.arrivals

    def record_drop(self) -> None:
        """Count the most recent arrival as dropped (not applied)."""
        self.updates_dropped += 1
        self.pending_drops += 1
        self.last_drop_seq = self.arrivals

    def apply_update(self, seqno: int) -> None:
        """Commit a refresh installing arrival ``seqno``.

        An out-of-order commit (an older refresh finishing after a newer
        one) never moves ``applied_seq`` backwards.  Installing a value
        at least as new as every drop clears the staleness lag: updates
        are full snapshots, so the newest one subsumes all skipped ones.
        """
        if seqno > self.applied_seq:
            self.applied_seq = seqno
        if seqno >= self.last_drop_seq:
            self.pending_drops = 0
        self.updates_executed += 1

    def record_query_access(self) -> None:
        """Count one query touching this item (for Figure 3 analysis)."""
        self.query_accesses += 1


class ItemTable:
    """The database ``D = {d_1 .. d_S}`` as a dense, indexable table."""

    def __init__(self, items: List[DataItem]) -> None:
        if not items:
            raise ValueError("item table cannot be empty")
        expected = list(range(len(items)))
        actual = [item.item_id for item in items]
        if actual != expected:
            raise ValueError("items must have dense ids 0..S-1 in order")
        self._items = items
        # Public alias for per-event hot paths: indexing the list
        # directly skips the ``__getitem__`` method-call overhead.  Ids
        # are dense 0..S-1, so ``rows[item_id]`` is always valid.
        self.rows: List[DataItem] = items
        # Items held above their ideal period, kept exact by every
        # period writer below (and by the update modulator's inlined
        # stretch, through ``note_degraded``).
        self._degraded = len(self.degraded_items())

    @classmethod
    def uniform(
        cls,
        size: int,
        ideal_period: float,
        update_exec_time: float,
    ) -> "ItemTable":
        """Build a table of ``size`` identical items (convenient in tests)."""
        return cls(
            [
                DataItem(
                    item_id=i,
                    ideal_period=ideal_period,
                    update_exec_time=update_exec_time,
                )
                for i in range(size)
            ]
        )

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, item_id: int) -> DataItem:
        return self._items[item_id]

    def __iter__(self) -> Iterator[DataItem]:
        return iter(self._items)

    def degraded_items(self) -> List[DataItem]:
        """Items whose current period exceeds the ideal period."""
        return [
            item for item in self._items if item.current_period > item.ideal_period
        ]

    def degraded_count(self) -> int:
        """Number of items whose current period exceeds the ideal period."""
        return self._degraded

    def note_degraded(self, count: int) -> None:
        """Count ``count`` items that just left their ideal period by an
        inlined Eq. 9 stretch (the update modulator's degrade loop)."""
        self._degraded += count

    def degrade(self, item_id: int, factor: float) -> float:
        """Stretch ``pc_j`` by ``(1 + factor)`` (paper Eq. 9).  Returns
        the new period."""
        if not 1.0 + factor > 1.0:
            raise ValueError("degrade factor must stretch the period")
        item = self._items[item_id]
        before = item.current_period
        if not before > item.ideal_period:
            self._degraded += 1
        item.current_period = before * (1.0 + factor)
        return item.current_period

    def set_period(self, item_id: int, period: float) -> None:
        """Set ``pc_j`` to ``period`` (at least ``pi_j``), e.g. to reset
        an item to its ideal period."""
        item = self._items[item_id]
        ideal = item.ideal_period
        if period < ideal:
            raise ValueError("current_period cannot be below ideal_period")
        self._degraded += (period > ideal) - (item.current_period > ideal)
        item.current_period = period

    def upgrade_degraded(self, shrink: float) -> List[DataItem]:
        """Shrink ``pc_j`` toward ``pi_j`` for every degraded item in one
        pass over the table (paper Eq. 10 as disambiguated in
        DESIGN.md): ``pc_j <- max(pi_j, pc_j - shrink * pi_j)``.

        The subtraction is in units of the *ideal* period, so a mildly
        degraded item snaps back within a couple of Upgrade signals
        ("quickly converge to the original update period") while a
        deeply degraded one recovers gradually.  ``max`` keeps ``pi_j``
        on a tie, and so does the compare below.  Returns the items
        whose period changed, in item-id order.
        """
        if shrink <= 0:
            raise ValueError("shrink must be positive")
        changed: List[DataItem] = []
        restored = 0
        for item in self._items:
            before = item.current_period
            ideal = item.ideal_period
            if before > ideal:
                after = before - shrink * ideal
                if not after > ideal:
                    after = ideal
                    restored += 1
                if after != before:
                    item.current_period = after
                    changed.append(item)
        self._degraded -= restored
        return changed

    def totals(self) -> Dict[str, int]:
        """Aggregate counters across the table."""
        return {
            "arrivals": sum(item.arrivals for item in self._items),
            "executed": sum(item.updates_executed for item in self._items),
            "dropped": sum(item.updates_dropped for item in self._items),
            "query_accesses": sum(item.query_accesses for item in self._items),
        }
