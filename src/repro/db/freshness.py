"""Freshness (paper Eq. 1).

Section 2.2 classifies per-item freshness measures into *time-based*,
*lag-based*, and *divergence-based* families and adopts the lag-based
one because updates are periodic:

    ``Qu(d_j) = 1 / (1 + Udrop_j)``

Query freshness aggregates item freshness with a strict ``min`` over
the accessed set ``D_i``.  This is the only freshness the code
computes: every decision path (ODU's refresh trigger, QMF's perceived
freshness, the server's park-for-refresh check) steers by ``Udrop``
itself, so scoring by any other measure would grade the policies on a
quantity none of them controls.

Eq. 1 is strictly decreasing in the lag and IEEE division is
monotone, so the min over items equals Eq. 1 of the largest lag, bit
for bit; :func:`query_freshness` divides once.
"""

from __future__ import annotations

from typing import Iterable

from repro.db.items import DataItem


def lag_freshness(udrop: int) -> float:
    """Eq. 1 for one item with ``udrop`` dropped updates pending."""
    return 1.0 / (1.0 + udrop)


def query_freshness(items: Iterable[DataItem]) -> float:
    """Strict-min aggregate of Eq. 1 over the items a query reads.

    Raises:
        ValueError: If ``items`` is empty — query freshness over no
            items is meaningless.
    """
    worst = -1
    for item in items:
        udrop = item.udrop
        if udrop > worst:
            worst = udrop
    if worst < 0:
        raise ValueError("query accesses no items")
    return lag_freshness(worst)
