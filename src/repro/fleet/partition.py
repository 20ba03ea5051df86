"""Deterministic item partitioning with optional K-way replication.

Every item has exactly one *primary* shard (writes always land there)
and, with ``replication = K > 1``, ``K - 1`` replica shards — the next
shards clockwise from the primary — that host lag-delayed copies of the
item's update stream.  All three strategies are pure functions of
``(n_items, n_shards)``: no RNG, no ambient state, so a partition is
reproducible from its parameters alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Tuple

#: Supported placement strategies.
STRATEGIES: Tuple[str, ...] = ("block", "mod", "hash")


@dataclasses.dataclass(frozen=True)
class Partition:
    """An item → shard placement map.

    Attributes:
        n_items: Database size S (global item ids are ``0..S-1``).
        n_shards: Fleet width N (shard ids are ``0..N-1``).
        replication: Host-set size K per item (1 = no replication).
        strategy: One of :data:`STRATEGIES`.
        primary: ``primary[g]`` is the primary shard of global item g.
        hosts: ``hosts[g]`` is g's full host set, primary first, then
            the ``K - 1`` clockwise-successor replica shards.
    """

    n_items: int
    n_shards: int
    replication: int
    strategy: str
    primary: Tuple[int, ...]
    hosts: Tuple[Tuple[int, ...], ...]

    def hosted_items(self, shard: int) -> List[int]:
        """Global ids hosted on ``shard`` — primary or replica (ascending)."""
        return [g for g, hs in enumerate(self.hosts) if shard in hs]


def _primary_of(item: int, n_items: int, n_shards: int, strategy: str) -> int:
    if strategy == "mod":
        return item % n_shards
    if strategy == "block":
        # Contiguous blocks, the first (n_items % n_shards) blocks one
        # item longer — the exact inverse of dealing items round-robin
        # into sorted per-shard lists.
        base = n_items // n_shards
        extra = n_items % n_shards
        boundary = (base + 1) * extra
        if item < boundary:
            return item // (base + 1)
        return extra + (item - boundary) // base
    if strategy == "hash":
        # SHA-256 keyed placement: stable across runs and platforms
        # (never the builtin ``hash``, which is salted per process).
        digest = hashlib.sha256(f"item-{item}".encode("ascii")).digest()
        return int.from_bytes(digest[:8], "big") % n_shards
    raise ValueError(f"unknown partition strategy {strategy!r}; one of {STRATEGIES}")


def build_partition(
    n_items: int,
    n_shards: int,
    replication: int = 1,
    strategy: str = "block",
) -> Partition:
    """Place ``n_items`` items on ``n_shards`` shards.

    Args:
        n_items: Database size S.
        n_shards: Fleet width; must satisfy ``1 <= n_shards <= n_items``
            (an empty shard would have no item table to build).
        replication: Host-set size per item, clamped implicitly by the
            fleet width (``K`` effective hosts = ``min(K, n_shards)``).
        strategy: ``"block"`` (contiguous ranges — preserves any
            spatial locality of the access histogram), ``"mod"``
            (round-robin striping), or ``"hash"`` (keyed spreading).
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
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown partition strategy {strategy!r}; one of {STRATEGIES}")

    k = min(replication, n_shards)
    primary: List[int] = []
    hosts: List[Tuple[int, ...]] = []
    for item in range(n_items):
        p = _primary_of(item, n_items, n_shards, strategy)
        primary.append(p)
        hosts.append(tuple((p + offset) % n_shards for offset in range(k)))

    # The hash strategy can starve a shard of primaries at small S;
    # repair deterministically by reassigning surplus items from the
    # most-loaded shards (highest item id first) to the empty ones.
    counts: Dict[int, int] = {shard: 0 for shard in range(n_shards)}
    for p in primary:
        counts[p] += 1
    empty = sorted(shard for shard, c in counts.items() if c == 0)
    for shard in empty:
        donor = max(sorted(counts), key=lambda s: counts[s])
        moved = max(g for g, p in enumerate(primary) if p == donor)
        primary[moved] = shard
        hosts[moved] = tuple((shard + offset) % n_shards for offset in range(k))
        counts[donor] -= 1
        counts[shard] += 1

    return Partition(
        n_items=n_items,
        n_shards=n_shards,
        replication=replication,
        strategy=strategy,
        primary=tuple(primary),
        hosts=tuple(hosts),
    )
