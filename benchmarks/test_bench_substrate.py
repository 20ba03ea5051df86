"""Performance microbenchmarks of the substrate hot paths.

These are regression guards, not paper artifacts: event loop
throughput, lottery operations, a Degrade signal, lock-manager handshakes, and a
full end-to-end simulation per policy.
"""

import random

from repro.core.lottery import LotteryScheduler
from repro.core.modulation import UpdateFrequencyModulator
from repro.core.tickets import TicketBook
from repro.db.items import ItemTable
from repro.db.locks import LockManager, LockMode
from repro.db.transactions import QueryTransaction, UpdateTransaction
from repro.experiments.config import ExperimentConfig, SCALES
from repro.experiments.runner import run_experiment
from repro.sim.engine import Simulator


def test_bench_event_loop_throughput(benchmark):
    """Schedule-and-fire cost of the bare engine (10k events/round)."""

    def run_events():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1

        for i in range(10_000):
            sim.schedule(float(i % 97) + i * 1e-6, tick)
        sim.run()
        return count

    assert benchmark(run_events) == 10_000


def test_bench_lottery_update_and_sample(benchmark):
    """Alternating set_weight + sample over 1024 slots (paper's S).

    The worst case for the cumulative table: every draw follows a
    mutation, so each one rebuilds the table in O(n).  A Degrade signal
    draws many times between mutations; see the next benchmark.
    """
    lottery = LotteryScheduler(1024)
    rng = random.Random(0)
    for i in range(1024):
        lottery.set_weight(i, rng.random())

    def churn():
        for i in range(1000):
            lottery.set_weight(i % 1024, rng.random())
            lottery.sample(rng)

    benchmark(churn)


def test_bench_degrade_signal(benchmark):
    """One ``degrade(512)`` on a 1024-item table after a stream of
    ticket updates, the shape the traffic has: the signal's draws share
    one cumulative table.  The updates and a period reset run untimed
    before each round."""
    n = 1024
    items = ItemTable.uniform(n, ideal_period=10.0, update_exec_time=1.0)
    book = TicketBook(n)
    modulator = UpdateFrequencyModulator(items, book, random.Random(2))
    rng = random.Random(1)
    events = [
        (rng.randrange(n), rng.random() < 0.3, rng.random()) for _ in range(2000)
    ]

    def ticket_stream():
        for item in items.rows:
            items.set_period(item.item_id, item.ideal_period)
        for item_id, is_query, value in events:
            if is_query:
                book.on_query_access(item_id, cpu_utilization=value)
            else:
                book.on_update(item_id, update_exec_time=value + 0.01)

    victims = benchmark.pedantic(
        modulator.degrade, args=(512,), setup=ticket_stream, rounds=200
    )
    assert len(victims) == 512


def test_bench_ticket_book_event_stream(benchmark):
    """Ticket maintenance under a mixed query/update event stream."""
    book = TicketBook(1024)
    rng = random.Random(1)
    events = [
        (rng.randrange(1024), rng.random() < 0.7, rng.random())
        for _ in range(5000)
    ]

    def stream():
        for item_id, is_query, value in events:
            if is_query:
                book.on_query_access(item_id, cpu_utilization=value)
            else:
                book.on_update(item_id, update_exec_time=value + 0.01)

    benchmark(stream)


def test_bench_lock_manager_handshakes(benchmark):
    """Grant/conflict/release churn at item granularity."""

    def churn():
        locks = LockManager()
        for round_no in range(500):
            query = QueryTransaction(
                txn_id=round_no * 2 + 1,
                arrival=0.0,
                exec_time=0.1,
                items=(round_no % 32,),
                relative_deadline=10.0,
            )
            update = UpdateTransaction(
                txn_id=round_no * 2 + 2,
                arrival=0.0,
                exec_time=0.1,
                item_id=round_no % 32,
                period=1.0,
            )
            locks.request(query, round_no % 32, LockMode.READ)
            result = locks.request(update, round_no % 32, LockMode.WRITE)
            for victim in result.victims:
                locks.release_all(victim)
            locks.request(update, round_no % 32, LockMode.WRITE)
            locks.release_all(update)
            locks.release_all(query)

    benchmark(churn)


def test_bench_end_to_end_unit(benchmark, bench_seed):
    """Whole-stack run: UNIT on med-unif at smoke scale."""
    config = ExperimentConfig(
        policy="unit", update_trace="med-unif", seed=bench_seed, scale=SCALES["smoke"]
    )
    report = benchmark.pedantic(run_experiment, args=(config,), rounds=1, iterations=1)
    assert report.queries_submitted > 0


def test_bench_end_to_end_imu(benchmark, bench_seed):
    """Whole-stack run: IMU (highest event volume) on med-unif."""
    config = ExperimentConfig(
        policy="imu", update_trace="med-unif", seed=bench_seed, scale=SCALES["smoke"]
    )
    report = benchmark.pedantic(run_experiment, args=(config,), rounds=1, iterations=1)
    assert report.updates_executed == report.update_arrivals
