"""Transaction records: user queries, updates, outcomes.

The paper distinguishes two transaction classes (Section 2.1): *user
query transactions*, which read one or more data items under a firm
deadline ``qt_i`` and a freshness requirement ``qf_i``, and *update
transactions*, which write a single data item and carry no deadline of
their own (they are ordered EDF by their arrival plus period).

The concrete classes are ``slots=True`` dataclasses: a run allocates
one object per arrival and the server touches their attributes in every
scheduling decision, so the slot layout (no per-instance ``__dict__``)
is a measurable win.  Class membership is exposed through the
``is_update`` class flag, which the hot paths test instead of calling
``isinstance``; the absolute ``deadline`` and the ``priority_key()``
tuple are both fixed at construction time and therefore precomputed.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import ClassVar, Optional, Tuple


class Outcome(enum.Enum):
    """The four possible fortunes of a user query (paper Section 2.1)."""

    SUCCESS = "success"
    REJECTED = "rejected"
    DEADLINE_MISS = "dmf"
    DATA_STALE = "dsf"

    # Members are singletons, so the C-level identity hash is correct
    # and much cheaper than Enum's per-call name hash — outcome counts
    # are dict-indexed on the simulation hot path.
    __hash__ = object.__hash__


class TransactionState(enum.Enum):
    """Lifecycle of a transaction inside the server."""

    PENDING = "pending"  # created, not yet submitted
    READY = "ready"  # in the ready queue, eligible to run
    RUNNING = "running"  # holds the CPU
    BLOCKED = "blocked"  # parked on on-demand refresh dependencies (ODU)
    COMMITTED = "committed"
    ABORTED = "aborted"

    __hash__ = object.__hash__  # singleton members; see Outcome


# Class-priority ranks: updates run above queries (Section 3.1).
UPDATE_CLASS_RANK = 0
QUERY_CLASS_RANK = 1


@dataclasses.dataclass(slots=True)
class _TransactionBase:
    """State shared by both transaction classes."""

    #: Class-membership flag; True on :class:`UpdateTransaction`.
    is_update: ClassVar[bool] = False

    txn_id: int
    arrival: float
    exec_time: float

    # -- runtime state (mutated by the server) --
    state: TransactionState = dataclasses.field(default=TransactionState.PENDING)
    remaining: float = dataclasses.field(default=0.0)
    run_started_at: Optional[float] = dataclasses.field(default=None)

    # Absolute EDF horizon, fixed at construction (arrival + qt_i for
    # queries, arrival + period for updates); set by __post_init__.
    deadline: float = dataclasses.field(init=False, repr=False, compare=False, default=0.0)
    _priority_key: Tuple[int, float, int] = dataclasses.field(
        init=False, repr=False, compare=False, default=(0, 0.0, 0)
    )

    def __post_init__(self) -> None:
        if self.exec_time <= 0:
            raise ValueError(f"exec_time must be positive, got {self.exec_time!r}")
        self.remaining = self.exec_time

    @property
    def is_finished(self) -> bool:
        return self.state in (TransactionState.COMMITTED, TransactionState.ABORTED)

    def priority_key(self) -> Tuple[int, float, int]:
        """Total priority order: smaller tuple = higher priority."""
        return self._priority_key


@dataclasses.dataclass(slots=True)
class QueryTransaction(_TransactionBase):
    """A user query ``q_i``.

    Attributes:
        items: Ids of the data items the query reads (``D_i``).
        relative_deadline: ``qt_i`` — allowed running time from arrival;
            the deadline is firm (Section 2.1).
        freshness_req: ``qf_i`` — minimum acceptable query freshness.
        restarts: Times the query was restarted by a 2PL-HP abort.
    """

    is_update: ClassVar[bool] = False

    items: Tuple[int, ...] = ()
    relative_deadline: float = 0.0
    freshness_req: float = 0.9
    restarts: int = 0
    # Freshness observed when the (final) execution read its items;
    # set by the server at run start, consumed at commit.
    observed_freshness: Optional[float] = None

    def __post_init__(self) -> None:
        # Explicit base-class call: zero-arg super() does not survive the
        # class rebuild dataclasses performs for slots=True.
        _TransactionBase.__post_init__(self)
        if not self.items:
            raise ValueError("a query must read at least one data item")
        if self.relative_deadline <= 0:
            raise ValueError("relative_deadline must be positive")
        if not 0.0 < self.freshness_req <= 1.0:
            raise ValueError("freshness_req must be in (0, 1]")
        self.deadline = self.arrival + self.relative_deadline
        self._priority_key = (QUERY_CLASS_RANK, self.deadline, self.txn_id)

    @property
    def cpu_utilization(self) -> float:
        """``qe_i / qt_i`` — the quantity Eq. 6 charges against tickets."""
        return self.exec_time / self.relative_deadline


@dataclasses.dataclass(slots=True)
class UpdateTransaction(_TransactionBase):
    """One executed refresh of a single data item.

    Attributes:
        item_id: The data item ``ud_j`` this update writes.
        seqno: Source sequence number of the freshest arrival this
            update installs; committing it makes the item reflect every
            arrival up to and including ``seqno``.
        period: The item's current (possibly modulated) period, used as
            the EDF horizon for updates.
        on_demand: True when issued by the ODU policy on behalf of a
            waiting query rather than by the periodic source.
    """

    is_update: ClassVar[bool] = True

    item_id: int = -1
    seqno: int = 0
    period: float = 1.0
    on_demand: bool = False

    def __post_init__(self) -> None:
        _TransactionBase.__post_init__(self)
        if self.item_id < 0:
            raise ValueError("item_id must be set")
        if self.period <= 0:
            raise ValueError("period must be positive")
        self.deadline = self.arrival + self.period
        self._priority_key = (UPDATE_CLASS_RANK, self.deadline, self.txn_id)


@dataclasses.dataclass(frozen=True, slots=True)
class QueryRecord:
    """Immutable post-mortem of a finished (or rejected) query."""

    txn_id: int
    arrival: float
    items: Tuple[int, ...]
    exec_time: float
    relative_deadline: float
    freshness_req: float
    outcome: Outcome
    finish_time: float
    freshness: Optional[float] = None
    restarts: int = 0

    @property
    def response_time(self) -> float:
        """Arrival-to-finish latency (finish = commit/abort/reject time)."""
        return self.finish_time - self.arrival
