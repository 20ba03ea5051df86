"""The simulated web-database server.

A single preemptive CPU executes two transaction classes under the
mechanisms fixed by paper Section 3.1:

* dual-priority ready queue — updates above queries, EDF within a class
  (:mod:`repro.db.ready_queue`);
* firm deadlines — an admitted query still unfinished at its absolute
  deadline is aborted and counted as a Deadline-Missed Failure;
* 2PL-HP concurrency control (:mod:`repro.db.locks`): queries read-lock
  every item they access for their full run, updates write-lock their
  single item; a higher-priority requester aborts (restarts)
  lower-priority conflicting holders;
* lag-based freshness checked at commit time: a query that finishes in
  time but whose minimum item freshness is below its requirement is a
  Data-Stale Failure.

The server is mechanism only.  All decisions — admit/reject, apply/drop,
period modulation — are delegated to a
:class:`repro.db.policy_api.ServerPolicy`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.db.freshness import FreshnessMetric, LagFreshness, query_freshness
from repro.db.items import DataItem, ItemTable
from repro.db.locks import LockManager, LockMode, LockStatus
from repro.db.policy_api import ServerPolicy
from repro.db.ready_queue import ReadyQueue
from repro.db.transactions import (
    Outcome,
    QueryRecord,
    QueryTransaction,
    TransactionState,
    UpdateTransaction,
)
from repro.obs.trace import (
    ENQUEUE_ADMIT,
    ENQUEUE_PREEMPT,
    ENQUEUE_REFRESH,
    ENQUEUE_RESTART,
    NULL_RECORDER,
    Recorder,
)
from repro.sim.engine import Simulator

Transaction = Union[QueryTransaction, UpdateTransaction]

#: A run of consecutive source-update arrivals handed to
#: :meth:`Server.source_update_run`: the ``(time, item_id)`` events,
#: the index of the first unprocessed arrival, and an optional
#: continuation invoked once the whole run has been applied.
_UpdateRun = Tuple[Sequence[Tuple[float, int]], int, Optional[object]]

# Same-instant event ordering: deadline aborts fire before arrivals,
# arrivals before completions scheduled at the identical timestamp.
DEADLINE_EVENT_PRIORITY = -2
ARRIVAL_EVENT_PRIORITY = -1
COMPLETION_EVENT_PRIORITY = 0
CONTROL_EVENT_PRIORITY = 1


@dataclasses.dataclass
class ServerConfig:
    """Tunables of the server mechanism (not of any policy).

    Attributes:
        freshness_metric: Per-item freshness measure; the paper's
            lag-based Eq. 1 by default.
        restart_aborted_queries: 2PL-HP victims restart from scratch
            (True, the paper's behaviour) or die immediately (False,
            an ablation).
    """

    freshness_metric: FreshnessMetric = dataclasses.field(default_factory=LagFreshness)
    restart_aborted_queries: bool = True


class Server:
    """Preemptive single-CPU web-database server.

    Drive it by calling :meth:`submit_query` and
    :meth:`source_update_arrival` from events scheduled on the shared
    :class:`~repro.sim.engine.Simulator` (the experiment runner does
    this from workload traces).
    """

    def __init__(
        self,
        sim: Simulator,
        items: ItemTable,
        policy: ServerPolicy,
        config: Optional[ServerConfig] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.sim = sim
        self.items = items
        # Direct row list for the per-event paths below; see
        # :attr:`ItemTable.rows`.
        self._item_rows = items.rows
        self.policy = policy
        self.config = config or ServerConfig()
        # Observability: every instrumentation site guards on
        # ``self.obs.enabled`` so the default (null recorder) costs one
        # attribute check per occurrence.
        self.obs: Recorder = recorder if recorder is not None else NULL_RECORDER

        self.ready = ReadyQueue()
        self.locks = LockManager()
        if self.obs.enabled:
            self.locks.bind_observer(self.obs, sim)
            # Pre-bound emit methods for the hot kinds: one attribute
            # load + call per occurrence instead of rebinding the
            # recorder method every time.
            self._emit_admit: Optional[Callable[..., None]] = self.obs.query_admit
            self._emit_outcome: Optional[Callable[..., None]] = self.obs.query_outcome
            self._emit_apply: Optional[Callable[..., None]] = self.obs.update_apply
            self._emit_drop: Optional[Callable[..., None]] = self.obs.update_drop
            # Scheduler lifecycle events (queue enter/exit, refresh
            # park): the substrate of the span builder's wait-state
            # segmentation (repro.obs.spans).  Queries only — spans are
            # per-query and update churn would double the event volume.
            self._emit_enqueue: Optional[Callable[..., None]] = self.obs.sched_enqueue
            self._emit_dispatch: Optional[Callable[..., None]] = self.obs.sched_dispatch
            self._emit_park: Optional[Callable[..., None]] = self.obs.sched_park
        else:
            self._emit_admit = None
            self._emit_outcome = None
            self._emit_apply = None
            self._emit_drop = None
            self._emit_enqueue = None
            self._emit_dispatch = None
            self._emit_park = None

        self._running: Optional[Transaction] = None
        # Engine cancel tokens (see Simulator.schedule_token) for the
        # completion and deadline events, the two schedule/cancel pairs.
        self._completion_token: Optional[int] = None
        self._deadline_tokens: Dict[int, int] = {}

        # ODU-style refresh dependencies.
        self._refresh_waiters: Dict[int, Set[int]] = {}  # update id -> query ids
        self._query_refreshes: Dict[int, Set[int]] = {}  # query id -> update ids
        self._live_queries: Dict[int, QueryTransaction] = {}

        self._next_txn_id = 1

        # Outcome bookkeeping.
        self.records: List[QueryRecord] = []
        self.outcome_counts: Dict[Outcome, int] = {outcome: 0 for outcome in Outcome}
        self.queries_submitted = 0
        self.updates_enqueued = 0

        # CPU accounting (per class), for utilization signals.
        self._busy_query = 0.0
        self._busy_update = 0.0

        # Service-rate multiplier (fault injection: CPU contention).
        # Work retired per simulated second; 1.0 is the unfaulted CPU.
        # All arithmetic below multiplies/divides elapsed time by this
        # rate — with the default 1.0 both operations are IEEE-exact, so
        # runs without a slowdown stay byte-identical to pre-fault code.
        self._service_rate = 1.0

        policy.bind(self)

    # ------------------------------------------------------------------
    # public API: workload entry points
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def next_txn_id(self) -> int:
        """Allocate a fresh transaction id (monotonically increasing)."""
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        return txn_id

    def submit_query(self, query: QueryTransaction) -> None:
        """A user query arrives: admission control, then enqueue."""
        if query.state is not TransactionState.PENDING:
            raise ValueError(f"query {query.txn_id} was already submitted")
        self.queries_submitted += 1
        rows = self._item_rows
        for item_id in query.items:
            rows[item_id].record_query_access()

        if not self.policy.admit_query(query, self):
            query.state = TransactionState.ABORTED
            self._finalize_query(query, Outcome.REJECTED, freshness=None)
            return

        emit = self._emit_admit
        if emit is not None:
            emit(self.sim.now, query.txn_id, query.deadline, len(query.items))
        self._live_queries[query.txn_id] = query
        self.policy.on_query_admitted(query, self)
        self._deadline_tokens[query.txn_id] = self.sim.schedule_token(
            query.deadline, self._deadline_abort, query,
            priority=DEADLINE_EVENT_PRIORITY,
        )

        if self._query_refreshes.get(query.txn_id):
            query.state = TransactionState.BLOCKED
            emit = self._emit_park
            if emit is not None:
                emit(self.sim.now, query.txn_id)
        else:
            query.state = TransactionState.READY
            self.ready.push(query)
            emit = self._emit_enqueue
            if emit is not None:
                emit(self.sim.now, query.txn_id, ENQUEUE_ADMIT)
        self._dispatch()

    def source_update_arrival(self, item_id: int) -> None:
        """A periodic source update for ``item_id`` arrives.

        The policy decides whether the server spends CPU applying it;
        a dropped arrival still advances the item's staleness lag.
        """
        item = self._item_rows[item_id]
        item.record_arrival(self.sim.now)
        if self.policy.should_apply_update(item, self):
            self._enqueue_update(item, on_demand=False)
            self._dispatch()
        else:
            item.record_drop()
            emit = self._emit_drop
            if emit is not None:
                emit(self.sim.now, item_id, item.current_period)

    def source_update_run(self, run: _UpdateRun) -> None:
        """Apply a run of consecutive source-update arrivals.

        The experiment runner schedules one simulator event per *run*
        (updates between two query arrivals) instead of one per
        arrival.  Each arrival is processed with full per-arrival
        semantics at its true time; between arrivals the clock advances
        via :meth:`Simulator.fire_inline` — no heap traffic — unless
        the engine refuses: something else (a deadline, a completion, a
        control tick) is due first, or the next arrival lies past the
        active ``run``'s ``until`` or ``max_events`` bound.  The rest of
        the run then falls back to a real event and yields.
        ``events_fired`` counts every arrival exactly as the
        one-event-per-arrival scheme did.
        """
        events, index, then = run
        sim = self.sim
        count = len(events)
        arrive = self.source_update_arrival
        while True:
            arrive(events[index][1])
            index += 1
            if index >= count:
                break
            at = events[index][0]
            if sim.fire_inline(at, ARRIVAL_EVENT_PRIORITY):
                continue
            # The engine may not fire the next arrival now: let the heap
            # order it and resume the run afterwards.
            sim.schedule_token(
                at, self.source_update_run, (events, index, then),
                priority=ARRIVAL_EVENT_PRIORITY,
            )
            return
        if then is not None:
            then()  # type: ignore[operator]

    def spawn_refresh(self, item: DataItem, query: QueryTransaction) -> UpdateTransaction:
        """Issue an on-demand refresh of ``item`` on behalf of ``query``
        (the ODU mechanism).

        The query will not start executing until the refresh commits.
        Must be called from ``on_query_admitted`` (before the query is
        enqueued).
        """
        update = self._enqueue_update(item, on_demand=True)
        self._refresh_waiters.setdefault(update.txn_id, set()).add(query.txn_id)
        self._query_refreshes.setdefault(query.txn_id, set()).add(update.txn_id)
        return update

    def attach_refresh(self, update: UpdateTransaction, query: QueryTransaction) -> bool:
        """Make ``query`` wait on an already-pending refresh instead of
        spawning a duplicate (ODU deduplication).

        Returns False (no dependency added) when the refresh already
        finished.  The pending refresh will install the freshest
        arrival known at this instant.
        """
        if update.is_finished:
            return False
        update.seqno = max(update.seqno, self.items[update.item_id].arrivals)
        self._refresh_waiters.setdefault(update.txn_id, set()).add(query.txn_id)
        self._query_refreshes.setdefault(query.txn_id, set()).add(update.txn_id)
        return True

    def _enqueue_update(self, item: DataItem, on_demand: bool) -> UpdateTransaction:
        update = UpdateTransaction(
            txn_id=self.next_txn_id(),
            arrival=self.sim.now,
            exec_time=item.update_exec_time,
            item_id=item.item_id,
            seqno=item.arrivals,
            period=item.current_period,
            on_demand=on_demand,
        )
        update.state = TransactionState.READY
        self.updates_enqueued += 1
        self.ready.push(update)
        return update

    # ------------------------------------------------------------------
    # accessors used by policies
    # ------------------------------------------------------------------

    def running_transaction(self) -> Optional[Transaction]:
        return self._running

    @property
    def service_rate(self) -> float:
        """Current service-rate multiplier (1.0 = unfaulted CPU)."""
        return self._service_rate

    def set_service_rate(self, rate: float) -> None:
        """Change the CPU's service rate (fault injection).

        The running transaction is re-timed: work retired so far at the
        old rate is credited against its remaining demand and its
        completion is rescheduled at the new rate.  Busy-time accounting
        is CPU *occupancy* (sim seconds), so it is rate-independent.
        """
        if rate <= 0:
            raise ValueError("service rate must be positive")
        old_rate = self._service_rate
        if rate == old_rate:
            return
        running = self._running
        if running is not None:
            now = self.sim.now
            started = running.run_started_at
            elapsed = 0.0 if started is None else now - started
            self._credit_busy(running, elapsed)
            running.remaining = max(0.0, running.remaining - elapsed * old_rate)
            running.run_started_at = now
            if self._completion_token is not None:
                self.sim.cancel_token(self._completion_token)
            self._service_rate = rate
            self._completion_token = self.sim.schedule_token(
                now + running.remaining / rate,
                self._complete, running,
                priority=COMPLETION_EVENT_PRIORITY,
            )
        else:
            self._service_rate = rate

    def running_remaining(self) -> float:
        """Remaining work of the transaction on the CPU, right now."""
        running = self._running
        if running is None:
            return 0.0
        started = running.run_started_at
        elapsed = 0.0 if started is None else self.sim.now - started
        remaining = running.remaining - elapsed * self._service_rate
        # Branch instead of ``max(0.0, ...)``: this is the admission
        # controller's per-decision read (``<= 0.0`` also folds -0.0 to
        # 0.0, exactly as ``max`` did by returning its first argument).
        return 0.0 if remaining <= 0.0 else remaining

    def busy_time(self) -> float:
        """Total CPU busy time so far (both classes, including the
        in-progress slice of the running transaction)."""
        total = self._busy_query + self._busy_update
        if self._running is not None and self._running.run_started_at is not None:
            total += self.now - self._running.run_started_at
        return total

    def busy_time_by_class(self) -> Dict[str, float]:
        """CPU busy time split by transaction class."""
        query_busy = self._busy_query
        update_busy = self._busy_update
        if self._running is not None and self._running.run_started_at is not None:
            slice_ = self.now - self._running.run_started_at
            if self._running.is_update:
                update_busy += slice_
            else:
                query_busy += slice_
        return {"query": query_busy, "update": update_busy}

    def item_freshness(self, item_id: int) -> float:
        """Current freshness of one item under the configured metric."""
        return self.config.freshness_metric.item_freshness(self.items[item_id], self.now)

    # ------------------------------------------------------------------
    # CPU dispatch
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        """Give the CPU to the highest-priority runnable transaction,
        preempting if necessary.  A query parked for refreshes falls out
        of the loop and the next candidate is tried."""
        while True:
            candidate = self.ready.peek()
            if candidate is None:
                return
            if self._running is not None:
                # Compare the precomputed key fields directly: this pair
                # of reads runs on every dispatch round.
                if candidate._priority_key < self._running._priority_key:
                    self._preempt(self._running)
                else:
                    return
            # The peeked candidate is by definition the queue head, so
            # pop() takes it in O(1) instead of a keyed removal.
            self.ready.pop()
            # Whether the candidate started or parked, go around again:
            # lock-conflict aborts during acquisition may have readied a
            # transaction that outranks whatever is now on the CPU.
            self._try_start(candidate)

    def _try_start(self, txn: Transaction) -> None:
        """Acquire ``txn``'s locks and put it on the CPU, unless it parks
        for on-demand refreshes.

        The lock table grants or names lower-priority victims to
        restart; ``txn`` is the ready-queue head, so no holder outranks
        it and no request waits (see :mod:`repro.db.locks`)."""
        if txn.is_update:
            needed: Sequence[int] = (txn.item_id,)
            mode = LockMode.WRITE
        else:
            if self._park_for_refresh(txn):
                return
            needed = txn.items
            mode = LockMode.READ

        for item_id in needed:
            if self.locks.holds(txn, item_id):
                continue
            while True:
                result = self.locks.request(txn, item_id, mode)
                if result.status is LockStatus.GRANTED:
                    break
                for victim in result.victims:
                    self._abort_restart(victim)

        self._run(txn)

    def _park_for_refresh(self, query: QueryTransaction) -> bool:
        """Give an on-demand policy the chance to refresh stale items
        before the query reads.  Returns True when the query was parked
        (it re-enters the ready queue when its refreshes commit)."""
        # Plain loop instead of any(genexpr): this runs on every query
        # start attempt and the generator frame costs more than the walk.
        rows = self._item_rows
        for item_id in query.items:
            if rows[item_id].udrop > 0:
                break
        else:
            return False
        if not self.policy.on_query_stale_at_read(query, self):
            return False
        if not self._query_refreshes.get(query.txn_id):
            return False  # policy asked to wait but spawned nothing
        query.state = TransactionState.BLOCKED
        # A parked query must not sit on read locks: the refresh needs a
        # write lock on the very items it is waiting on.
        self.locks.release_all(query)
        emit = self._emit_park
        if emit is not None:
            emit(self.sim.now, query.txn_id)
        return True

    def _run(self, txn: Transaction) -> None:
        now = self.sim.now
        txn.state = TransactionState.RUNNING
        txn.run_started_at = now
        if not txn.is_update:
            emit = self._emit_dispatch
            if emit is not None:
                emit(now, txn.txn_id)
        if not txn.is_update and txn.observed_freshness is None:
            # The query reads its items now (under read locks, no update
            # can commit on them until it finishes or is aborted); the
            # freshness it observes is the freshness of its result.
            metric = self.config.freshness_metric
            item_ids = txn.items
            if len(item_ids) == 1:
                # Single-item fast path (the common case): the query
                # freshness min over one item is that item's freshness.
                txn.observed_freshness = metric.item_freshness(
                    self._item_rows[item_ids[0]], now
                )
            else:
                rows = self._item_rows
                txn.observed_freshness = query_freshness(
                    [rows[item_id] for item_id in item_ids],
                    now,
                    metric,
                )
        self._running = txn
        self._completion_token = self.sim.schedule_token(
            now + txn.remaining / self._service_rate,
            self._complete, txn,
            priority=COMPLETION_EVENT_PRIORITY,
        )

    def _preempt(self, txn: Transaction) -> None:
        """Take ``txn`` off the CPU, crediting the work done so far."""
        assert txn is self._running
        if self._completion_token is not None:
            self.sim.cancel_token(self._completion_token)
            self._completion_token = None
        started = txn.run_started_at
        elapsed = 0.0 if started is None else self.sim.now - started
        self._credit_busy(txn, elapsed)
        remaining = txn.remaining - elapsed * self._service_rate
        txn.remaining = 0.0 if remaining <= 0.0 else remaining
        txn.run_started_at = None
        txn.state = TransactionState.READY
        self._running = None
        self.ready.push(txn)
        if not txn.is_update:
            emit = self._emit_enqueue
            if emit is not None:
                emit(self.sim.now, txn.txn_id, ENQUEUE_PREEMPT)

    def _credit_busy(self, txn: Transaction, elapsed: float) -> None:
        if txn.is_update:
            self._busy_update += elapsed
        else:
            self._busy_query += elapsed

    # ------------------------------------------------------------------
    # completion, aborts
    # ------------------------------------------------------------------

    def _complete(self, txn: Transaction) -> None:
        assert txn is self._running
        started = txn.run_started_at
        elapsed = 0.0 if started is None else self.sim.now - started
        self._credit_busy(txn, elapsed)
        txn.remaining = 0.0
        txn.run_started_at = None
        txn.state = TransactionState.COMMITTED
        self._running = None
        self._completion_token = None

        self.locks.release_all(txn)

        if txn.is_update:
            self._commit_update(txn)
        else:
            self._commit_query(txn)
        self._dispatch()

    def _commit_update(self, update: UpdateTransaction) -> None:
        now = self.sim.now
        item = self._item_rows[update.item_id]
        item.apply_update(update.seqno, now)
        item.last_execution_started = now - update.exec_time
        self.policy.on_update_applied(update, item, self)
        emit = self._emit_apply
        if emit is not None:
            emit(now, update.item_id, update.txn_id, update.on_demand, update.period)

        waiters = self._refresh_waiters.pop(update.txn_id, None)
        if waiters is None:
            return
        for query_id in waiters:
            pending = self._query_refreshes.get(query_id)
            if pending is None:
                continue
            pending.discard(update.txn_id)
            query = self._live_queries.get(query_id)
            if query is None or query.is_finished:
                continue
            if not pending and query.state is TransactionState.BLOCKED:
                query.state = TransactionState.READY
                self.ready.push(query)
                emit = self._emit_enqueue
                if emit is not None:
                    emit(now, query_id, ENQUEUE_REFRESH)

    def _commit_query(self, query: QueryTransaction) -> None:
        token = self._deadline_tokens.pop(query.txn_id, None)
        if token is not None:
            self.sim.cancel_token(token)
        freshness = query.observed_freshness
        if freshness is None:  # defensive: commit without a run snapshot
            freshness = query_freshness(
                (self._item_rows[item_id] for item_id in query.items),
                self.sim.now,
                self.config.freshness_metric,
            )
        if freshness + 1e-12 >= query.freshness_req:
            outcome = Outcome.SUCCESS
        else:
            outcome = Outcome.DATA_STALE
        self._finalize_query(query, outcome, freshness)

    def _deadline_abort(self, query: QueryTransaction) -> None:
        """Firm deadline: the query dies wherever it is."""
        if query.is_finished:
            return
        self._detach(query)
        query.state = TransactionState.ABORTED
        self.locks.release_all(query)
        self._finalize_query(query, Outcome.DEADLINE_MISS, freshness=None)
        self._dispatch()

    def _abort_restart(self, victim: Transaction) -> None:
        """2PL-HP abort: the victim loses its locks and progress.

        Queries restart from scratch (their firm deadline still
        applies); updates re-enter the ready queue.  With
        ``restart_aborted_queries=False`` a victim query instead dies
        immediately as a deadline miss (ablation).
        """
        self._detach(victim)
        self.locks.release_all(victim)
        victim.remaining = victim.exec_time
        victim.run_started_at = None

        if not victim.is_update:
            victim.restarts += 1
            victim.observed_freshness = None  # the restart re-reads
            if self.config.restart_aborted_queries and self.sim.now < victim.deadline:
                victim.state = TransactionState.READY
                self.ready.push(victim)
                emit = self._emit_enqueue
                if emit is not None:
                    emit(self.sim.now, victim.txn_id, ENQUEUE_RESTART)
            else:
                token = self._deadline_tokens.pop(victim.txn_id, None)
                if token is not None:
                    self.sim.cancel_token(token)
                victim.state = TransactionState.ABORTED
                self._finalize_query(victim, Outcome.DEADLINE_MISS, freshness=None)
        else:
            victim.state = TransactionState.READY
            self.ready.push(victim)

    def _detach(self, txn: Transaction) -> None:
        """Take ``txn`` off the CPU or out of the ready queue, wherever
        it currently lives (a query parked for refreshes is in neither)."""
        if txn is self._running:
            if self._completion_token is not None:
                self.sim.cancel_token(self._completion_token)
                self._completion_token = None
            started = txn.run_started_at
            elapsed = 0.0 if started is None else self.sim.now - started
            self._credit_busy(txn, elapsed)
            remaining = txn.remaining - elapsed * self._service_rate
            txn.remaining = 0.0 if remaining <= 0.0 else remaining
            txn.run_started_at = None
            self._running = None
        elif txn in self.ready:
            self.ready.remove(txn)

    def _finalize_query(
        self,
        query: QueryTransaction,
        outcome: Outcome,
        freshness: Optional[float],
    ) -> None:
        token = self._deadline_tokens.pop(query.txn_id, None)
        if token is not None:
            self.sim.cancel_token(token)
        # Drop any outstanding refresh dependencies.
        refreshes = self._query_refreshes.pop(query.txn_id, None)
        if refreshes is not None:
            for update_id in refreshes:
                waiters = self._refresh_waiters.get(update_id)
                if waiters is not None:
                    waiters.discard(query.txn_id)
        self._live_queries.pop(query.txn_id, None)

        if outcome is not Outcome.REJECTED:
            query.state = (
                TransactionState.COMMITTED
                if outcome in (Outcome.SUCCESS, Outcome.DATA_STALE)
                else TransactionState.ABORTED
            )
        # Positional construction (field order) — this is the per-query
        # hot exit path and keyword binding measurably adds up.
        now = self.sim.now
        record = QueryRecord(
            query.txn_id,
            query.arrival,
            query.items,
            query.exec_time,
            query.relative_deadline,
            query.freshness_req,
            outcome,
            now,
            freshness,
            query.restarts,
            query.profile,
            query.user_class,
        )
        self.records.append(record)
        self.outcome_counts[outcome] += 1
        emit = self._emit_outcome
        if emit is not None:
            emit(
                now,
                query.txn_id,
                outcome.value,
                query.arrival,
                now - query.arrival,
                freshness,
                query.restarts,
            )
        self.policy.on_query_outcome(record, self)
