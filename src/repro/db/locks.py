"""Two-Phase Locking with High Priority (2PL-HP).

The concurrency-control scheme the paper adopts (Section 3.1, citing
Abbott & Garcia-Molina).  The rule: when a transaction requests a lock
that conflicts with locks held by *strictly lower-priority*
transactions only, the holders are aborted (restarted) and the
requester proceeds; if any conflicting holder has higher priority, the
requester waits.  Because wait-for edges therefore always point from
lower to higher priority — and priority keys are a strict total order —
no deadlock can form.

Priorities are the transactions' ``priority_key()`` tuples (class rank,
deadline, id): updates above queries, EDF within a class.

In this server the wait branch is never taken.  There is one CPU, and
the server requests locks only for the transaction it is about to put
on it: the head of the ready queue, which outranks the running
transaction it preempts.  The ready queue orders by the same key, so
the requester is the top-priority ready transaction.  Every other lock
holder is either that preempted transaction or a ready one behind it;
a query parked for refreshes gives its locks up, and aborted or
finished transactions release theirs.  So every conflicting holder has
lower priority and the request ends in GRANTED or CONFLICT, never
BLOCKED; with no waiter ever queued, no waiter can block a later
request either.  ``tests/test_db_locks.py`` pins zero BLOCKED over a
grid of policies, traces, query sizes and fault scenarios.  The wait
path stays for direct callers of this class and is exercised by its
own unit tests.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.db.transactions import QueryTransaction, UpdateTransaction
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sim.engine import Simulator

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
    BLOCKED = "blocked"
    CONFLICT = "conflict"  # lower-priority holders must be aborted first

    __hash__ = object.__hash__  # singleton members; see LockMode


@dataclasses.dataclass
class LockRequestResult:
    """Outcome of :meth:`LockManager.request`.

    ``victims`` is populated only for :attr:`LockStatus.CONFLICT`: the
    caller must abort those transactions (which releases their locks)
    and retry the request.
    """

    status: LockStatus
    victims: Tuple[Transaction, ...] = ()


#: Shared immutable results for the two allocation-free outcomes; the
#: grant path runs once per lock request on the simulation hot path.
_GRANTED = LockRequestResult(LockStatus.GRANTED)
_BLOCKED = LockRequestResult(LockStatus.BLOCKED)


@dataclasses.dataclass
class _Waiter:
    txn: Transaction
    mode: LockMode


class _ItemLock:
    """Lock state for a single data item."""

    __slots__ = ("holders", "waiters")

    def __init__(self) -> None:
        self.holders: Dict[int, Tuple[Transaction, LockMode]] = {}
        self.waiters: List[_Waiter] = []


class LockManager:
    """Item-granularity 2PL-HP lock table.

    The manager never aborts transactions itself: a
    :attr:`LockStatus.CONFLICT` result names the victims and the server
    performs the abort (releasing their locks) before retrying.  This
    keeps control flow single-owner and avoids re-entrant callbacks.
    """

    def __init__(self) -> None:
        self._locks: Dict[int, _ItemLock] = {}
        self._held_by: Dict[int, Set[int]] = {}  # txn_id -> item ids held
        self._waiting_on: Dict[int, int] = {}  # txn_id -> item id waited on
        # Observability: the lock table has no clock of its own, so the
        # recorder comes paired with the simulator whose virtual time
        # stamps the wait/preempt events.  Disabled by default.
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

    def is_waiting(self, txn: Transaction) -> bool:
        """True if ``txn`` is queued behind some lock."""
        return txn.txn_id in self._waiting_on

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

        Returns GRANTED (lock now held), BLOCKED (queued; the caller
        will be told via :meth:`release_all`'s grant list when it gets
        the lock), or CONFLICT with the lower-priority holders to abort.

        Re-requesting a held lock in the same or weaker mode is a
        GRANTED no-op; read→write upgrades follow the same HP rule
        against the *other* holders.
        """
        locks = self._locks
        lock = locks.get(item_id)
        if lock is None:
            lock = locks[item_id] = _ItemLock()

        # Uncontended fast path (the overwhelmingly common case): no
        # holders and no waiters means no conflict of any kind.
        if not lock.holders and not lock.waiters:
            lock.holders[txn.txn_id] = (txn, mode)
            held_items = self._held_by.get(txn.txn_id)
            if held_items is None:
                held_items = self._held_by[txn.txn_id] = set()
            held_items.add(item_id)
            return _GRANTED

        held = lock.holders.get(txn.txn_id)
        if held is not None:
            _, held_mode = held
            if held_mode is LockMode.WRITE or mode is LockMode.READ:
                return _GRANTED

        conflicting = [
            holder
            for holder_id, (holder, holder_mode) in lock.holders.items()
            if holder_id != txn.txn_id and not _compatible(holder_mode, mode)
        ]

        # No barging: an incompatible waiter with higher priority keeps
        # this request out even if the holders are compatible.
        blocking_waiters = [
            waiter
            for waiter in lock.waiters
            if waiter.txn.txn_id != txn.txn_id
            and waiter.txn.priority_key() < txn.priority_key()
            and not (_compatible(waiter.mode, mode) and _compatible(mode, waiter.mode))
        ]

        if not conflicting and not blocking_waiters:
            lock.holders[txn.txn_id] = (txn, mode)
            held_items = self._held_by.get(txn.txn_id)
            if held_items is None:
                held_items = self._held_by[txn.txn_id] = set()
            held_items.add(item_id)
            return _GRANTED

        higher_priority_conflicts = [
            holder
            for holder in conflicting
            if holder.priority_key() < txn.priority_key()
        ]
        if higher_priority_conflicts or blocking_waiters:
            self._enqueue_waiter(lock, txn, mode, item_id)
            obs = self._obs
            if obs.enabled and self._obs_sim is not None:
                obs.lock_wait(
                    self._obs_sim.now,
                    txn.txn_id,
                    item_id,
                    txn.is_update,
                    sorted(lock.holders),
                )
            return _BLOCKED

        # Every conflicting holder has strictly lower priority: 2PL-HP
        # says abort them all.
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

    def _enqueue_waiter(
        self,
        lock: _ItemLock,
        txn: Transaction,
        mode: LockMode,
        item_id: int,
    ) -> None:
        if txn.txn_id in self._waiting_on:
            raise RuntimeError(
                f"txn {txn.txn_id} already waiting on item {self._waiting_on[txn.txn_id]}"
            )
        lock.waiters.append(_Waiter(txn=txn, mode=mode))
        lock.waiters.sort(key=lambda waiter: waiter.txn.priority_key())
        self._waiting_on[txn.txn_id] = item_id

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------

    def release_all(self, txn: Transaction) -> List[Transaction]:
        """Release every lock ``txn`` holds (and any wait it is queued
        in) and promote waiters.

        Returns:
            Transactions that were *granted* a lock by this release, in
            priority order.  The server resumes their lock-acquisition
            progress.
        """
        self.cancel_wait(txn)
        granted: List[Transaction] = []
        item_ids = self._held_by.pop(txn.txn_id, None)
        if item_ids is None:
            return granted
        for item_id in item_ids:
            lock = self._locks.get(item_id)
            if lock is None:
                continue
            lock.holders.pop(txn.txn_id, None)
            granted.extend(self._promote_waiters(lock, item_id))
        return granted

    def cancel_wait(self, txn: Transaction) -> None:
        """Remove ``txn`` from any wait queue (e.g. on deadline abort)."""
        item_id = self._waiting_on.pop(txn.txn_id, None)
        if item_id is None:
            return
        lock = self._locks.get(item_id)
        if lock is not None:
            lock.waiters = [w for w in lock.waiters if w.txn.txn_id != txn.txn_id]
            # The departure may unblock lower-priority compatible waiters;
            # the caller's release path re-dispatches, and the next
            # release on this item will promote them.  To avoid stalls we
            # promote eagerly here as well, but discard the grant list:
            # promotion only ever *adds* holders, and the server learns
            # about them through its own release path.  Eager promotion
            # with notification is handled by release_all.

    def _promote_waiters(self, lock: _ItemLock, item_id: int) -> List[Transaction]:
        """Grant queued waiters now compatible, in priority order."""
        granted: List[Transaction] = []
        while lock.waiters:
            waiter = lock.waiters[0]
            conflicting = [
                holder_mode
                for holder_id, (_, holder_mode) in lock.holders.items()
                if holder_id != waiter.txn.txn_id
                and not _compatible(holder_mode, waiter.mode)
            ]
            if conflicting:
                break
            lock.waiters.pop(0)
            self._waiting_on.pop(waiter.txn.txn_id, None)
            lock.holders[waiter.txn.txn_id] = (waiter.txn, waiter.mode)
            self._held_by.setdefault(waiter.txn.txn_id, set()).add(item_id)
            granted.append(waiter.txn)
        if granted:
            obs = self._obs
            if obs.enabled and self._obs_sim is not None:
                now = self._obs_sim.now
                for grantee in granted:
                    obs.lock_grant(now, grantee.txn_id, item_id)
        return granted

    # ------------------------------------------------------------------
    # introspection (tests / debugging)
    # ------------------------------------------------------------------

    def holders_of(self, item_id: int) -> List[Tuple[int, LockMode]]:
        """(txn_id, mode) pairs currently holding ``item_id``."""
        lock = self._locks.get(item_id)
        if lock is None:
            return []
        return [(txn_id, mode) for txn_id, (_, mode) in lock.holders.items()]

    def waiters_of(self, item_id: int) -> List[int]:
        """txn ids queued on ``item_id``, in grant order."""
        lock = self._locks.get(item_id)
        if lock is None:
            return []
        return [waiter.txn.txn_id for waiter in lock.waiters]

    def waited_item(self, txn: Transaction) -> Optional[int]:
        """The item ``txn`` is blocked on, if any."""
        return self._waiting_on.get(txn.txn_id)
