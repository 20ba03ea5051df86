"""The two baseline policies of Section 4.1.

* **IMU** (Immediate Update): every source update executes; no
  admission control.  Freshness is perfect, but at high update volume
  the update class (which outranks queries) starves user queries.

* **ODU** (On-Demand Update): periodic arrivals are never applied;
  when an admitted query needs a stale item, a refresh transaction is
  issued and the query waits for it.  Freshness at query start is
  perfect, but the refresh CPU time delays the query (and everything
  behind it), causing deadline misses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Protocol

from repro.db.items import DataItem, ItemTable
from repro.db.policy_api import ServerPolicy
from repro.db.transactions import QueryTransaction, UpdateTransaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.server import Server


class RefreshingPolicy(Protocol):
    """What :func:`refresh_stale_items` needs from its host policy."""

    _pending: Dict[int, UpdateTransaction]
    refreshes_spawned: int
    refreshes_shared: int


class ImuPolicy(ServerPolicy):
    """Immediate Update: apply everything, admit everything."""

    reads_profile = False

    def admit_query(self, query: QueryTransaction, server: "Server") -> bool:
        return True

    def should_apply_update(self, item: DataItem, server: "Server") -> bool:
        return True

    def describe(self) -> str:
        return "IMU"


class OduPolicy(ServerPolicy):
    """On-Demand Update: refresh stale items when a query reads them.

    The refresh is issued at read time — "updates are executed only
    when a query finds that a needed data item is stale" — and the
    query waits for it, which is exactly the delay the paper blames for
    ODU's deadline misses.  As in the paper, each stale access issues
    its own refresh: a query never attaches to a refresh another query
    already started.
    """

    reads_profile = False

    def __init__(self) -> None:
        self.refreshes_spawned = 0
        self.refreshes_shared = 0
        self._pending: Dict[int, UpdateTransaction] = {}

    def admit_query(self, query: QueryTransaction, server: "Server") -> bool:
        return True

    def should_apply_update(self, item: DataItem, server: "Server") -> bool:
        return False

    def on_query_stale_at_read(self, query: QueryTransaction, server: "Server") -> bool:
        return refresh_stale_items(self, query, server, server.items, dedup=False)

    def describe(self) -> str:
        return "ODU"


def refresh_stale_items(
    policy: RefreshingPolicy,
    query: QueryTransaction,
    server: "Server",
    items: ItemTable,
    dedup: bool,
) -> bool:
    """Shared on-demand refresh mechanics (used by ODU and QMF).

    Spawns (or, with ``dedup``, attaches to) a refresh for every stale
    item of ``query``; returns True when the query should wait for at
    least one refresh.  ``policy`` must expose ``_pending`` /
    ``refreshes_spawned`` / ``refreshes_shared`` attributes.
    """
    waiting = False
    for item_id in query.items:
        item = items[item_id]
        if item.udrop == 0:
            continue
        pending = policy._pending.get(item_id)
        if (
            dedup
            and pending is not None
            and server.attach_refresh(pending, query)
        ):
            policy.refreshes_shared += 1
            waiting = True
            continue
        policy._pending[item_id] = server.spawn_refresh(item, query)
        policy.refreshes_spawned += 1
        waiting = True
    return waiting
