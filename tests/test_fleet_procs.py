"""Shard worker processes: failures surface as typed, prompt errors."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments.config import SCALES, ExperimentConfig
from repro.fleet import FleetConfig, run_fleet
from repro.fleet import procs
from repro.fleet.partition import build_partition
from repro.fleet.procs import ShardProcessError, ShardProcessPool
from repro.fleet.router import route_queries
from repro.fleet.substrate import ShardRun, build_shard_specs
from repro.workload.cache import get_workload

BASE = ExperimentConfig(
    policy="unit", update_trace="med-unif", seed=7, scale=SCALES["smoke"]
)


def two_shard_specs():
    query_trace, update_trace = get_workload(BASE)
    partition = build_partition(BASE.scale.n_items, 2)
    plan = route_queries(query_trace, update_trace, partition)
    return build_shard_specs(BASE, partition, plan, query_trace, update_trace)


class TestWorkerDeath:
    def test_killed_worker_raises_promptly_naming_the_shard(self):
        pool = ShardProcessPool(two_shard_specs())
        try:
            pool.run_epoch(20.0)
            victim = pool._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            started = time.monotonic()
            with pytest.raises(ShardProcessError) as caught:
                pool.run_epoch(40.0)
            assert time.monotonic() - started < 5.0
        finally:
            pool.close()
        error = caught.value
        assert error.shard == 1
        assert error.command == "run_to 40.0"
        assert "shard 1" in str(error) and "run_to 40.0" in str(error)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched class reaches workers only through fork",
    )
    def test_error_reply_names_shard_and_command(self, monkeypatch):
        class FailingFinish(ShardRun):
            def finish(self, started=None, phase_seconds=None):
                if self.spec.shard_id == 0:
                    raise RuntimeError("boom")
                return super().finish(started, phase_seconds)

        # Workers fork from this process, so they see the patched class.
        monkeypatch.setattr(procs, "ShardRun", FailingFinish)
        fleet = FleetConfig(base=BASE, n_shards=2, workers=1)
        with pytest.raises(ShardProcessError) as caught:
            run_fleet(fleet)
        assert caught.value.shard == 0
        assert caught.value.command == "finish"
        assert "RuntimeError: boom" in str(caught.value)


def _wedged_worker(conn, spec):
    """Alive but silent: swallows every command until told to stop."""
    while conn.recv()[0] != procs._CMD_STOP:
        pass


class TestWedgedWorker:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched worker reaches the pool only through fork",
    )
    def test_silent_worker_hits_the_reply_deadline(self, monkeypatch):
        monkeypatch.setattr(procs, "_shard_worker", _wedged_worker)
        monkeypatch.setattr(procs, "_REPLY_DEADLINE_SECONDS", 0.5)
        fleet = FleetConfig(base=BASE, n_shards=2, workers=1)
        started = time.monotonic()
        with pytest.raises(ShardProcessError) as caught:
            run_fleet(fleet)
        assert time.monotonic() - started < 30.0
        error = caught.value
        assert error.shard == 0
        assert error.command == "run_to 20.0"
        assert "shard 0" in str(error) and "run_to 20.0" in str(error)
        assert "no reply within 0.5 s" in str(error)
