"""The dual-priority ready queue.

Paper Section 3.1: "The dispatching discipline adopted in our system is
a dual-priority queue: updates have higher priorities than queries,
whereas within each group, EDF (Earliest Deadline First) is applied."

Implementation: one bucketed sorted list per class (the sorted-
containers technique: ~O(sqrt(n)) insert/remove via bisect over bucket
maxima, O(1) front access), with *exact* incremental backlog
aggregates.  Each entry carries its transaction's ``remaining`` as a
fixed-point integer in units of 2**-1074 (the smallest positive
subnormal double), so per-bucket and per-class running sums are exact
integers — order-independent, drift-free, and a pure function of the
live multiset.  ``update_backlog`` / ``query_backlog_before`` /
``query_backlog_ahead_of`` read those sums in O(buckets) instead of
scanning every queued transaction, and the admission controller's
endangered-queries walk iterates entries already in EDF order.

``remaining`` must be stable while a transaction is queued (the server
sets it *before* every push — on preempt, abort, and restart — and
mutates it again only once the transaction is back on the CPU), so the
integer mirror fixed at push time always matches the float at removal.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterator, List, Optional, Tuple, Union

from repro.core.fixedpoint import FIXED_ONE as _FIXED_ONE
from repro.core.fixedpoint import fixed_from_float, float_from_fixed
from repro.db.transactions import QueryTransaction, UpdateTransaction

__all__ = [
    "ReadyQueue",
    "Transaction",
    "fixed_from_float",
    "float_from_fixed",
]

Transaction = Union[QueryTransaction, UpdateTransaction]

# One entry per queued transaction: ``(deadline, txn_id, txn, fixed)``.
# (deadline, txn_id) is the EDF-with-tie-break sort key and is unique,
# so tuple comparison never reaches the transaction object; ``fixed``
# is the remaining-work integer mirror.  Probe keys are 2-tuples
# ``(deadline, txn_id)``: against a 4-tuple entry with the same first
# two fields the *shorter* tuple compares smaller, so ``entry < probe``
# is exactly "entry strictly ahead of probe in EDF order".
_Entry = Tuple[float, int, Transaction, int]
_Key = Tuple[float, int]

#: Split buckets above this length; ~2x the sorted-containers default
#: keeps bisect steps few while bounding memmove cost on inserts.
_BUCKET_LIMIT = 128


class _ClassQueue:
    """One transaction class: bucketed sorted entries + exact sums."""

    __slots__ = ("_buckets", "_maxes", "_sums", "total_fixed", "size")

    def __init__(self) -> None:
        self._buckets: List[List[_Entry]] = []
        # Last entry of each bucket (bisect target; entry/probe-key
        # comparisons work as described on ``_Entry``).
        self._maxes: List[_Entry] = []
        self._sums: List[int] = []  # per-bucket exact backlog
        self.total_fixed = 0
        self.size = 0

    def insert(self, entry: _Entry) -> None:
        buckets = self._buckets
        if not buckets:
            buckets.append([entry])
            self._maxes.append(entry)
            self._sums.append(entry[3])
        else:
            maxes = self._maxes
            index = bisect_left(maxes, entry)
            if index == len(buckets):
                index -= 1
            bucket = buckets[index]
            insort(bucket, entry)
            if bucket[-1] is entry:
                maxes[index] = entry
            self._sums[index] += entry[3]
            if len(bucket) > _BUCKET_LIMIT:
                self._split(index)
        self.total_fixed += entry[3]
        self.size += 1

    def _split(self, index: int) -> None:
        bucket = self._buckets[index]
        half = len(bucket) // 2
        tail = bucket[half:]
        del bucket[half:]
        tail_sum = sum(entry[3] for entry in tail)
        self._buckets.insert(index + 1, tail)
        self._maxes[index] = bucket[-1]
        self._maxes.insert(index + 1, tail[-1])
        self._sums[index] -= tail_sum
        self._sums.insert(index + 1, tail_sum)

    def remove(self, key: _Key) -> bool:
        """Remove the entry with sort key ``key``; False when absent."""
        maxes = self._maxes
        index = bisect_left(maxes, key)
        if index == len(maxes):
            return False
        bucket = self._buckets[index]
        position = bisect_left(bucket, key)
        if position == len(bucket):
            return False
        entry = bucket[position]
        if entry[0] != key[0] or entry[1] != key[1]:
            return False
        del bucket[position]
        self.total_fixed -= entry[3]
        self.size -= 1
        if bucket:
            maxes[index] = bucket[-1]
            self._sums[index] -= entry[3]
        else:
            del self._buckets[index]
            del maxes[index]
            del self._sums[index]
        return True

    def pop_first(self) -> Transaction:
        bucket = self._buckets[0]
        entry = bucket.pop(0)
        self.total_fixed -= entry[3]
        self.size -= 1
        if bucket:
            self._sums[0] -= entry[3]
        else:
            del self._buckets[0]
            del self._maxes[0]
            del self._sums[0]
        return entry[2]

    def prefix_fixed(self, key: _Key) -> int:
        """Exact backlog of entries strictly ahead of ``key``."""
        total = 0
        buckets = self._buckets
        for index, bucket_max in enumerate(self._maxes):
            if bucket_max < key:
                total += self._sums[index]
                continue
            for entry in buckets[index]:
                if entry < key:
                    total += entry[3]
                else:
                    break
            break
        return total

    def entries_after(self, key: _Key) -> Iterator[_Entry]:
        """Entries strictly after ``key``, in EDF order.

        An entry carrying ``key``'s exact ``(deadline, txn_id)`` — the
        probe itself, when the probe is queued — compares *greater*
        than the 2-tuple key, so ``bisect_right`` alone would yield it;
        it is skipped explicitly ("after" never includes the probe).
        """
        maxes = self._maxes
        index = bisect_right(maxes, key)
        if index == len(maxes):
            return
        bucket = self._buckets[index]
        position = bisect_right(bucket, key)
        if position < len(bucket):
            entry = bucket[position]
            if entry[0] == key[0] and entry[1] == key[1]:
                position += 1
        for entry in bucket[position:]:
            yield entry
        for bucket in self._buckets[index + 1:]:
            yield from bucket

    def transactions(self) -> List[Transaction]:
        return [entry[2] for bucket in self._buckets for entry in bucket]


class ReadyQueue:
    """Updates strictly above queries; EDF within each class."""

    def __init__(self) -> None:
        self._updates = _ClassQueue()
        self._queries = _ClassQueue()
        self._live: set = set()

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, txn: Transaction) -> bool:
        return txn.txn_id in self._live

    def push(self, txn: Transaction) -> None:
        """Enqueue a transaction.  Re-pushing a queued txn is an error."""
        if txn.txn_id in self._live:
            raise ValueError(f"txn {txn.txn_id} is already in the ready queue")
        self._live.add(txn.txn_id)
        entry = (txn.deadline, txn.txn_id, txn, fixed_from_float(txn.remaining))
        if txn.is_update:
            self._updates.insert(entry)
        else:
            self._queries.insert(entry)

    def remove(self, txn: Transaction) -> None:
        """Remove a transaction (e.g. on deadline abort); absent is a no-op."""
        if txn.txn_id not in self._live:
            return
        self._live.discard(txn.txn_id)
        queue = self._updates if txn.is_update else self._queries
        queue.remove((txn.deadline, txn.txn_id))

    def peek(self) -> Optional[Transaction]:
        """Highest-priority ready transaction without removing it."""
        # Inlined front reads (every dispatch round peeks): reach into
        # the class queues directly instead of two ``first()`` calls.
        queue = self._updates
        if queue.size:
            return queue._buckets[0][0][2]
        queue = self._queries
        if queue.size:
            return queue._buckets[0][0][2]
        return None

    def pop(self) -> Optional[Transaction]:
        """Remove and return the highest-priority ready transaction."""
        if self._updates.size:
            txn = self._updates.pop_first()
        elif self._queries.size:
            txn = self._queries.pop_first()
        else:
            return None
        self._live.discard(txn.txn_id)
        return txn

    # ------------------------------------------------------------------
    # backlog inspection (used by admission control; O(buckets) reads
    # of incrementally-maintained exact sums)
    # ------------------------------------------------------------------

    def ready_updates(self) -> List[UpdateTransaction]:
        """Live queued updates, in EDF order."""
        return self._updates.transactions()  # type: ignore[return-value]

    def ready_queries(self) -> List[QueryTransaction]:
        """Live queued queries, in EDF order."""
        return self._queries.transactions()  # type: ignore[return-value]

    def update_backlog(self) -> float:
        """Total remaining work of queued updates (seconds)."""
        return float_from_fixed(self._updates.total_fixed)

    def query_backlog(self) -> float:
        """Total remaining work of queued queries (seconds)."""
        return float_from_fixed(self._queries.total_fixed)

    def query_backlog_before(self, deadline: float) -> float:
        """Total remaining work of queued queries with deadline < ``deadline``."""
        return float_from_fixed(self._queries.prefix_fixed((deadline, -1)))

    def query_backlog_ahead_of(self, query: QueryTransaction) -> float:
        """Total remaining work of queued queries dispatched before ``query``.

        Unlike :meth:`query_backlog_before`, equal-deadline queries are
        ordered by the full EDF tie-break (``priority_key``), so a
        queued query sharing ``query``'s deadline but holding a smaller
        txn id is correctly counted as ahead of it.
        """
        return float_from_fixed(
            self._queries.prefix_fixed((query.deadline, query.txn_id))
        )

    def backlog_ahead_of(self, query: QueryTransaction) -> float:
        """Combined update + earlier-query backlog ahead of ``query``
        under the dual-priority EDF discipline, converted once.

        Equivalent to ``update_backlog() + query_backlog_ahead_of(query)``
        up to a single correctly-rounded conversion instead of two —
        the admission controller's EST read.
        """
        return float_from_fixed(
            self._updates.total_fixed
            + self._queries.prefix_fixed((query.deadline, query.txn_id))
        )

    def queries_after(self, query: QueryTransaction) -> Iterator[QueryTransaction]:
        """Queued queries dispatched after ``query`` under the full EDF
        tie-break, in dispatch order — the admission controller's
        endangered-candidate walk."""
        for entry in self._queries.entries_after((query.deadline, query.txn_id)):
            yield entry[2]  # type: ignore[misc]
