"""The hook interface between the server and a transaction-management
policy.

The server owns mechanism (dispatching, locking, deadlines, freshness
bookkeeping); a :class:`ServerPolicy` owns policy (admit or reject a
query, apply or drop an update arrival, modulate per-item periods).
UNIT, IMU, ODU, and QMF in :mod:`repro.core` all implement this
interface, so the evaluation harness can swap them freely.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.db.items import DataItem
from repro.db.transactions import Outcome, QueryTransaction, UpdateTransaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.db.server import Server


class ServerPolicy(abc.ABC):
    """Decision hooks invoked by :class:`repro.db.server.Server`.

    All hooks receive the server so a policy can inspect queue state,
    item periods, and the clock; hooks other than the two decision
    points have no-op defaults.
    """

    #: Whether the policy reads the run's penalty profile.  A policy
    #: that never does behaves identically under every profile, so the
    #: sweep runner simulates it once and rescores its outcome counts.
    reads_profile = True

    def bind(self, server: "Server") -> None:
        """Called once before the simulation starts.

        Policies that run a feedback loop schedule their first control
        tick here.
        """

    @abc.abstractmethod
    def admit_query(self, query: QueryTransaction, server: "Server") -> bool:
        """Admission decision for an arriving user query."""

    @abc.abstractmethod
    def should_apply_update(self, item: DataItem, server: "Server") -> bool:
        """Whether to execute (True) or drop (False) the update arrival
        just recorded on ``item``."""

    def on_query_admitted(self, query: QueryTransaction, server: "Server") -> None:
        """Called right after a query passes admission (UNIT charges
        ticket values here)."""

    def on_query_stale_at_read(self, query: QueryTransaction, server: "Server") -> bool:
        """Called when a query is about to execute while at least one of
        its items is stale (``udrop > 0``).

        An on-demand policy (ODU; QMF for its flexible-freshness items)
        spawns refresh transactions here via
        :meth:`~repro.db.server.Server.spawn_refresh` /
        :meth:`~repro.db.server.Server.attach_refresh` and returns True:
        the server then parks the query until the refreshes commit.
        Returning False (the default) lets the query read as-is.
        """
        return False

    def on_query_outcome(self, outcome: Outcome, server: "Server") -> None:
        """Called when a query reaches its final ``outcome`` (including
        rejection)."""

    def on_update_applied(
        self,
        update: UpdateTransaction,
        item: DataItem,
        server: "Server",
    ) -> None:
        """Called when an update transaction commits."""

    def on_fault(self, label: str, active: bool, server: "Server") -> None:
        """Called by the fault driver at an injected fault's window
        boundaries (``active`` is True at the start, False at the end).

        The default is a no-op: policies are not told what the fault
        *is* — they must react through their ordinary feedback signals.
        The hook exists so a policy can snapshot its controller state at
        the boundary (UNIT records a ``control.window`` trace event),
        which anchors degradation analysis to the fault timeline.
        """

    def describe(self) -> str:
        """Short policy name for reports."""
        return type(self).__name__
