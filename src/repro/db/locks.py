"""Two-Phase Locking with High Priority (2PL-HP).

The concurrency-control scheme the paper adopts (Section 3.1, citing
Abbott & Garcia-Molina).  The rule: when a transaction requests a lock
that conflicts with locks held by *strictly lower-priority*
transactions only, the holders are aborted (restarted) and the
requester proceeds; if any conflicting holder has higher priority, the
requester would wait.

Priorities are the transactions' ``priority_key()`` tuples (class rank,
deadline, id): updates above queries, EDF within a class.

In this server the wait never happens, so this table only grants or
restarts.  There is one CPU, and the server requests locks only for
the transaction it is about to put on it: the head of the ready queue,
which outranks the running transaction it preempts.  The ready queue
orders by the same key, so the requester is the top-priority ready
transaction.  Every other lock holder is either that preempted
transaction or a ready one behind it; a query parked for refreshes
gives its locks up, and aborted or finished transactions release
theirs.  So every conflicting holder has lower priority and the
request ends in GRANTED or CONFLICT.  A request that an incompatible
holder outranks raises :class:`LockWaitError` before it touches the
table: a policy that breaks the argument fails loudly instead of
parking a transaction on a queue nothing drains.
``tests/test_db_locks.py`` pins that no request raises over a grid of
policies, traces, query sizes, fault scenarios and a coordinated
replicated fleet.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.db.transactions import QueryTransaction, UpdateTransaction
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sim.engine import SimulationError, Simulator

Transaction = Union[QueryTransaction, UpdateTransaction]


class LockMode(enum.Enum):
    """Read locks are shared; write locks are exclusive."""

    READ = "read"
    WRITE = "write"

    # Singleton members: identity hash is correct and cheap (lock
    # tables are dict-indexed per request on the hot path).
    __hash__ = object.__hash__


def _compatible(held: LockMode, requested: LockMode) -> bool:
    return held is LockMode.READ and requested is LockMode.READ


class LockStatus(enum.Enum):
    """Result of a lock request."""

    GRANTED = "granted"
    CONFLICT = "conflict"  # lower-priority holders must be aborted first

    __hash__ = object.__hash__  # singleton members; see LockMode


class LockWaitError(SimulationError):
    """A lock request that 2PL-HP would make wait: an incompatible
    holder outranks the requester.

    The server never issues one (see the module docstring), so this
    names a broken scheduling argument rather than a recoverable state.
    """

    def __init__(self, requester: Transaction, holder: Transaction, item_id: int) -> None:
        super().__init__(
            f"txn {requester.txn_id} requested item {item_id}, held by "
            f"higher-priority txn {holder.txn_id}: 2PL-HP would wait, "
            "and this lock table only grants or restarts"
        )
        self.requester = requester
        self.holder = holder
        self.item_id = item_id


@dataclasses.dataclass
class LockRequestResult:
    """Outcome of :meth:`LockManager.request`.

    ``victims`` is populated only for :attr:`LockStatus.CONFLICT`: the
    caller must abort those transactions (which releases their locks)
    and retry the request.
    """

    status: LockStatus
    victims: Tuple[Transaction, ...] = ()


#: Shared immutable result for the allocation-free outcome; the grant
#: path runs once per lock request on the simulation hot path.
_GRANTED = LockRequestResult(LockStatus.GRANTED)

#: One item's holders: txn id -> (transaction, mode held).
_Holders = Dict[int, Tuple[Transaction, LockMode]]


class LockManager:
    """Item-granularity 2PL-HP lock table.

    The manager never aborts transactions itself: a
    :attr:`LockStatus.CONFLICT` result names the victims and the server
    performs the abort (releasing their locks) before retrying.  This
    keeps control flow single-owner and avoids re-entrant callbacks.
    """

    def __init__(self) -> None:
        self._locks: Dict[int, _Holders] = {}  # item id -> its holders
        self._held_by: Dict[int, Set[int]] = {}  # txn_id -> item ids held
        # Observability: the lock table has no clock of its own, so the
        # recorder comes paired with the simulator whose virtual time
        # stamps the preempt events.  Disabled by default.
        self._obs: Recorder = NULL_RECORDER
        self._obs_sim: Optional[Simulator] = None

    def bind_observer(self, recorder: Recorder, sim: Simulator) -> None:
        """Attach a trace recorder; event times come from ``sim.now``."""
        self._obs = recorder
        self._obs_sim = sim

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def holds(self, txn: Transaction, item_id: int) -> bool:
        """True if ``txn`` currently holds a lock on ``item_id``."""
        held = self._held_by.get(txn.txn_id)
        return held is not None and item_id in held

    def held_items(self, txn: Transaction) -> Set[int]:
        """Ids of all items ``txn`` holds locks on."""
        return set(self._held_by.get(txn.txn_id, set()))

    # ------------------------------------------------------------------
    # acquisition
    # ------------------------------------------------------------------

    def request(
        self,
        txn: Transaction,
        item_id: int,
        mode: LockMode,
    ) -> LockRequestResult:
        """Request ``mode`` on ``item_id`` for ``txn``.

        Returns GRANTED (lock now held) or CONFLICT with the
        lower-priority holders to abort.

        Re-requesting a held lock in the same or weaker mode is a
        GRANTED no-op; read→write upgrades follow the same HP rule
        against the *other* holders.

        Raises:
            LockWaitError: An incompatible holder outranks ``txn``; the
                table is left as it was.
        """
        holders = self._locks.get(item_id)
        if holders is None:
            holders = self._locks[item_id] = {}
        elif holders:
            held = holders.get(txn.txn_id)
            if held is not None:
                _, held_mode = held
                if held_mode is LockMode.WRITE or mode is LockMode.READ:
                    return _GRANTED

            conflicting = [
                holder
                for holder_id, (holder, holder_mode) in holders.items()
                if holder_id != txn.txn_id and not _compatible(holder_mode, mode)
            ]
            if conflicting:
                key = txn.priority_key()
                for holder in conflicting:
                    if holder.priority_key() < key:
                        raise LockWaitError(txn, holder, item_id)
                # Every conflicting holder has strictly lower priority:
                # 2PL-HP says abort them all.
                obs = self._obs
                if obs.enabled and self._obs_sim is not None:
                    obs.lock_preempt(
                        self._obs_sim.now,
                        txn.txn_id,
                        item_id,
                        txn.is_update,
                        sorted(victim.txn_id for victim in conflicting),
                    )
                return LockRequestResult(LockStatus.CONFLICT, victims=tuple(conflicting))

        holders[txn.txn_id] = (txn, mode)
        held_items = self._held_by.get(txn.txn_id)
        if held_items is None:
            held_items = self._held_by[txn.txn_id] = set()
        held_items.add(item_id)
        return _GRANTED

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------

    def release_all(self, txn: Transaction) -> None:
        """Release every lock ``txn`` holds."""
        item_ids = self._held_by.pop(txn.txn_id, None)
        if item_ids is None:
            return
        locks = self._locks
        for item_id in item_ids:
            holders = locks.get(item_id)
            if holders is not None:
                holders.pop(txn.txn_id, None)

    def cancel_wait(self, txn: Transaction) -> None:
        """No-op: nothing waits; kept while ``perfbench/tracing.py`` hooks the name."""

    # ------------------------------------------------------------------
    # introspection (tests / debugging)
    # ------------------------------------------------------------------

    def holders_of(self, item_id: int) -> List[Tuple[int, LockMode]]:
        """(txn_id, mode) pairs currently holding ``item_id``."""
        holders = self._locks.get(item_id)
        if holders is None:
            return []
        return [(txn_id, mode) for txn_id, (_, mode) in holders.items()]
