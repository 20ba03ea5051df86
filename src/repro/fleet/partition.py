"""Deterministic block item partitioning with optional K-way replication.

Every item has exactly one *primary* shard (writes always land there)
and, with ``replication = K > 1``, ``K - 1`` replica shards — the next
shards clockwise from the primary — that host lag-delayed copies of the
item's update stream.  Placement is a pure function of
``(n_items, n_shards)``: no RNG, no ambient state, so a partition is
reproducible from its parameters alone.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple


@dataclasses.dataclass(frozen=True)
class Partition:
    """An item → shard placement map.

    Attributes:
        n_items: Database size S (global item ids are ``0..S-1``).
        n_shards: Fleet width N (shard ids are ``0..N-1``).
        replication: Host-set size K per item (1 = no replication).
        primary: ``primary[g]`` is the primary shard of global item g.
        hosts: ``hosts[g]`` is g's full host set, primary first, then
            the ``K - 1`` clockwise-successor replica shards.
    """

    n_items: int
    n_shards: int
    replication: int
    primary: Tuple[int, ...]
    hosts: Tuple[Tuple[int, ...], ...]

    def hosted_items(self, shard: int) -> List[int]:
        """Global ids hosted on ``shard`` — primary or replica (ascending)."""
        return [g for g, hs in enumerate(self.hosts) if shard in hs]


def _primary_of(item: int, n_items: int, n_shards: int) -> int:
    # Contiguous blocks, the first (n_items % n_shards) blocks one item
    # longer — the exact inverse of dealing items round-robin into
    # sorted per-shard lists.
    base = n_items // n_shards
    extra = n_items % n_shards
    boundary = (base + 1) * extra
    if item < boundary:
        return item // (base + 1)
    return extra + (item - boundary) // base


def build_partition(n_items: int, n_shards: int, replication: int = 1) -> Partition:
    """Place ``n_items`` items on ``n_shards`` shards in contiguous
    blocks (preserving any spatial locality of the access histogram).

    Args:
        n_items: Database size S.
        n_shards: Fleet width; must satisfy ``1 <= n_shards <= n_items``,
            so every shard gets ``n_items // n_shards >= 1`` primaries
            (an empty shard would have no item table to build).
        replication: Host-set size per item, clamped implicitly by the
            fleet width (``K`` effective hosts = ``min(K, n_shards)``).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if n_items < n_shards:
        raise ValueError(
            f"n_shards ({n_shards}) cannot exceed n_items ({n_items}): "
            "every shard must host at least one primary item"
        )
    if replication < 1:
        raise ValueError("replication must be >= 1")

    k = min(replication, n_shards)
    primary = tuple(_primary_of(item, n_items, n_shards) for item in range(n_items))
    return Partition(
        n_items=n_items,
        n_shards=n_shards,
        replication=replication,
        primary=primary,
        hosts=tuple(tuple((p + offset) % n_shards for offset in range(k)) for p in primary),
    )
