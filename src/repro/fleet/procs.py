"""Run shard substrates as separate OS processes.

One long-lived worker process per shard, driven over a
:class:`multiprocessing.Pipe` in lockstep epochs:

    init(spec) -> [step(t, directive) -> summary]* -> finish

Each epoch is one :meth:`ShardRun.step`, the call a serial fleet makes
in process.  A shard's trajectory is a pure function of its spec and
the directive sequence it receives, and the coordinator computes
directives from the summaries alone — so the process-parallel fleet is
byte-identical to the serial one (the equivalence the fleet test suite
locks in).  Workers complement :func:`repro.experiments.sweep.fan_out`:
the fan-out parallelizes *independent* fleet cells across a sweep
grid, while these processes parallelize the *coupled* shards inside one
fleet run (a stateful epoch protocol the pool's fire-and-forget tasks
cannot express).

A worker that dies, replies with an error, or stays silent past the
reply deadline surfaces in the parent as a :class:`ShardProcessError`
naming the shard and the command it was serving; the parent checks
worker liveness and the deadline while it waits for a reply.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from typing import List, Optional, Sequence

from repro.experiments.runner import SimulationReport
from repro.experiments.sweep import fork_context
from repro.fleet.controller import Directive, EpochSummary
from repro.fleet.substrate import ShardRun, ShardSpec

_CMD_RUN_TO = "run_to"
_CMD_FINISH = "finish"
_CMD_STOP = "stop"

#: Seconds between liveness checks while awaiting a shard's reply.
_POLL_SECONDS = 0.05

#: Seconds a live worker may take to answer one command before it is
#: deemed wedged and terminated.  A paper-scale ``finish`` takes seconds;
#: this leaves two orders of magnitude of headroom for a loaded host.
_REPLY_DEADLINE_SECONDS = 300.0


class ShardProcessError(RuntimeError):
    """A shard worker died or reported an error while serving a command."""

    def __init__(self, shard: int, command: str, detail: str) -> None:
        super().__init__(f"shard {shard} failed during {command!r}: {detail}")
        self.shard = shard
        self.command = command


def _shard_worker(
    conn: "multiprocessing.connection.Connection", spec: ShardSpec
) -> None:
    """Worker loop: build the substrate, then serve epoch commands."""
    try:
        started = time.perf_counter()
        run = ShardRun(spec)
        while True:
            message = conn.recv()
            command = message[0]
            if command == _CMD_RUN_TO:
                _, until, directive = message
                conn.send(("ok", run.step(until, directive)))
            elif command == _CMD_FINISH:
                conn.send(("ok", run.finish(started=started)))
                break
            elif command == _CMD_STOP:
                break
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", f"unknown command {command!r}"))
                break
    except Exception as exc:  # pragma: no cover - surfaced to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class ShardProcessPool:
    """One process per shard, stepped in lockstep epochs."""

    def __init__(self, specs: Sequence[ShardSpec]) -> None:
        ctx = fork_context()
        self._conns: List["multiprocessing.connection.Connection"] = []
        self._procs: List[multiprocessing.process.BaseProcess] = []
        #: The command each shard is serving, for error messages.
        self._pending: List[str] = ["init"] * len(specs)
        for spec in specs:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker,
                args=(child, spec),
                name=f"fleet-shard-{spec.shard_id}",
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    def _send(self, index: int, message: tuple, command: str) -> None:
        self._pending[index] = command
        try:
            self._conns[index].send(message)
        except OSError as exc:  # BrokenPipeError, ConnectionResetError, ...
            raise ShardProcessError(index, command, f"worker unreachable ({exc})") from exc

    def _recv(self, index: int) -> object:
        """Await shard ``index``'s reply, checking between polls that its
        worker is still alive and within the reply deadline (neither a
        dead nor a wedged worker may block forever)."""
        conn = self._conns[index]
        proc = self._procs[index]
        command = self._pending[index]
        deadline = time.monotonic() + _REPLY_DEADLINE_SECONDS
        try:
            while not conn.poll(_POLL_SECONDS):
                # A worker may exit right after replying: poll once more.
                if not proc.is_alive() and not conn.poll(0):
                    raise ShardProcessError(
                        index, command, f"worker exited with code {proc.exitcode}"
                    )
                if time.monotonic() > deadline:
                    proc.terminate()
                    proc.join(timeout=5.0)
                    raise ShardProcessError(
                        index, command, f"no reply within {_REPLY_DEADLINE_SECONDS:g} s"
                    )
            status, payload = conn.recv()
        except (EOFError, ConnectionResetError) as exc:
            raise ShardProcessError(
                index, command, f"worker died ({type(exc).__name__})"
            ) from exc
        if status != "ok":
            raise ShardProcessError(index, command, str(payload))
        return payload

    def run_epoch(
        self, until: float, directives: Optional[Sequence[Optional[Directive]]] = None
    ) -> List[EpochSummary]:
        """Advance every shard to ``until``; returns epoch summaries.

        All shards run concurrently (commands are sent before any reply
        is awaited); replies are collected in shard order so the caller
        sees a deterministic sequence.
        """
        for index in range(len(self._conns)):
            directive = directives[index] if directives is not None else None
            self._send(index, (_CMD_RUN_TO, until, directive), f"run_to {until}")
        return [self._recv(index) for index in range(len(self._conns))]  # type: ignore[misc]

    def finish(self) -> List[SimulationReport]:
        """Drain every shard and collect the reports (shard order)."""
        for index in range(len(self._conns)):
            self._send(index, (_CMD_FINISH,), _CMD_FINISH)
        reports = [self._recv(index) for index in range(len(self._conns))]
        self.close()
        return reports  # type: ignore[return-value]

    def close(self) -> None:
        """Terminate workers and reap the processes (idempotent)."""
        for conn in self._conns:
            try:
                conn.send((_CMD_STOP,))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5.0)
        self._conns = []
        self._procs = []
        self._pending = []
