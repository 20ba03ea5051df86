"""Stateful property testing of the 2PL-HP lock manager.

A hypothesis rule machine drives random interleavings of request /
release operations across transactions of both classes.  A request
that an incompatible holder outranks must raise :class:`LockWaitError`
naming that holder and leave the table unchanged; the machine checks
the safety invariants after every step:

* never two incompatible holders on one item;
* the holder/held_by maps agree.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.db.locks import LockManager, LockMode, LockStatus, LockWaitError
from repro.db.transactions import QueryTransaction, UpdateTransaction
from tests.test_db_locks import held_items, holders_of

N_ITEMS = 3


class LockMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.locks = LockManager()
        self.txns = {}
        self.next_id = 1
        self.live = set()  # txn ids neither released nor aborted

    def _new_txn(self, is_update, horizon):
        txn_id = self.next_id
        self.next_id += 1
        if is_update:
            txn = UpdateTransaction(
                txn_id=txn_id,
                arrival=0.0,
                exec_time=0.1,
                item_id=0,
                period=horizon,
            )
        else:
            txn = QueryTransaction(
                txn_id=txn_id,
                arrival=0.0,
                exec_time=0.1,
                items=(0,),
                relative_deadline=horizon,
            )
        self.txns[txn_id] = txn
        self.live.add(txn_id)
        return txn

    @rule(
        is_update=st.booleans(),
        horizon=st.floats(min_value=0.1, max_value=100.0),
        item=st.integers(min_value=0, max_value=N_ITEMS - 1),
    )
    def request(self, is_update, horizon, item):
        txn = self._new_txn(is_update, horizon)
        mode = LockMode.WRITE if is_update else LockMode.READ
        while True:
            outranked = [
                self.txns[holder_id]
                for holder_id, held in holders_of(self.locks, item)
                if not (held is LockMode.READ and mode is LockMode.READ)
                and self.txns[holder_id].priority_key() < txn.priority_key()
            ]
            before = holders_of(self.locks, item)
            if outranked:
                with pytest.raises(LockWaitError) as caught:
                    self.locks.request(txn, item, mode)
                assert caught.value.holder in outranked
                assert holders_of(self.locks, item) == before
                assert held_items(self.locks, txn) == set()
                self.live.discard(txn.txn_id)
                return
            result = self.locks.request(txn, item, mode)
            if result.status is not LockStatus.CONFLICT:
                break
            for victim in result.victims:
                self.locks.release_all(victim)
                self.live.discard(victim.txn_id)

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def release_some_live_txn(self, pick):
        if not self.live:
            return
        txn_id = sorted(self.live)[pick % len(self.live)]
        self.locks.release_all(self.txns[txn_id])
        self.live.discard(txn_id)

    @invariant()
    def no_incompatible_holders(self):
        for item in range(N_ITEMS):
            modes = [mode for _, mode in holders_of(self.locks, item)]
            writers = sum(1 for mode in modes if mode is LockMode.WRITE)
            assert writers <= 1
            if writers == 1:
                assert len(modes) == 1

    @invariant()
    def held_by_map_agrees(self):
        for item in range(N_ITEMS):
            for txn_id, _ in holders_of(self.locks, item):
                assert item in held_items(self.locks, self.txns[txn_id])


TestLockMachine = LockMachine.TestCase
TestLockMachine.settings = settings(max_examples=40, stateful_step_count=30)
