"""The simulated web-database server substrate.

Implements the mechanisms fixed by Section 3.1 of the paper: a single
preemptive CPU, a dual-priority ready queue (updates above queries,
EDF within each class), firm deadlines, lag-based freshness, and
Two-Phase-Locking High-Priority (2PL-HP) concurrency control.
"""

from repro.db.freshness import lag_freshness, query_freshness
from repro.db.items import DataItem, ItemTable
from repro.db.locks import LockManager, LockMode
from repro.db.ready_queue import ReadyQueue
from repro.db.server import Server, ServerConfig
from repro.db.transactions import (
    Outcome,
    QueryRecord,
    QueryTransaction,
    TransactionState,
    UpdateTransaction,
)

__all__ = [
    "DataItem",
    "ItemTable",
    "LockManager",
    "LockMode",
    "Outcome",
    "QueryRecord",
    "QueryTransaction",
    "ReadyQueue",
    "Server",
    "ServerConfig",
    "TransactionState",
    "UpdateTransaction",
    "lag_freshness",
    "query_freshness",
]
