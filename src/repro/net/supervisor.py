"""Parent-side supervision of shard worker processes.

PR8's sharded runtime assumed its own substrate never fails: a worker that
is SIGKILLed, OOM-killed or stuck in a busy loop left the parent blocked in
``conn.recv()`` forever, stalling the lock-step epoch protocol and taking
every subscription on the worker's peers down with it.  This module closes
that failure domain:

* :class:`ShardSupervisor` bounds every request/reply worker turn with a
  deadline and a liveness check (process exit code, pipe EOF, reply-shape
  validation) and classifies confirmed losses into the typed errors of
  :mod:`repro.net.errors` -- :class:`~repro.net.errors.WorkerCrashed`,
  :class:`~repro.net.errors.WorkerHung` (the straggler is killed, so a hang
  never wedges shutdown either) and
  :class:`~repro.net.errors.WorkerPoisoned` (a malformed reply means the
  worker's state cannot be trusted; it is killed too).
* :class:`WorkerFaultInjector` schedules deterministic worker-level faults
  (kill / hang / corrupt at a chosen epoch) so chaos scenarios and tests can
  reproduce real process failures byte-for-byte: the same seed and schedule
  always kill the same worker at the same epoch.

The supervisor only *detects and classifies*; the failover itself (oracle
``fail_peer`` per owned peer, recovery redeployment, shard-map
reintegration) lives in :class:`~repro.net.shard.ShardedRuntime`, next to
the epoch protocol it amends.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass
from typing import Any

from repro.net.errors import (
    WorkerCrashed,
    WorkerFailure,
    WorkerHung,
    WorkerPoisoned,
)

#: reply tag expected for each request op, with the tuple arity it must have
REPLY_SHAPES: dict[str, int] = {"out": 4, "results": 3, "pong": 2}


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the worker supervision layer.

    ``turn_timeout`` bounds one request/reply worker turn (a full shard
    drain at the far end); the default is generous because a missed deadline
    is treated as a worker loss, not a retry.  ``poll_interval`` is the
    granularity at which the supervisor interleaves pipe polling with
    process liveness checks while waiting.
    """

    turn_timeout: float = 30.0
    poll_interval: float = 0.05


class ShardSupervisor:
    """Deadline-bounded, liveness-checked request/reply turns with workers."""

    def __init__(self, config: SupervisorConfig | None = None) -> None:
        self.config = config or SupervisorConfig()
        #: shard index -> the classified failure that lost it
        self.lost: dict[int, WorkerFailure] = {}

    # -- the supervised protocol -------------------------------------------

    def send(self, shard: int, proc: Any, conn: Any, command: tuple) -> None:
        """Send one command; a broken pipe is a confirmed crash."""
        try:
            conn.send(command)
        except (BrokenPipeError, OSError) as exc:
            raise self._mark(WorkerCrashed(shard, self._exit_detail(proc))) from exc

    def request(
        self, shard: int, proc: Any, conn: Any, command: tuple, expect: str
    ) -> tuple:
        """One full supervised turn: send, deadline-recv, validate shape."""
        self.send(shard, proc, conn, command)
        reply = self._recv(shard, proc, conn)
        arity = REPLY_SHAPES[expect]
        if (
            not isinstance(reply, tuple)
            or not reply
            or reply[0] != expect
            or len(reply) != arity
        ):
            self._kill(proc)  # the worker is off-protocol: state untrusted
            raise self._mark(
                WorkerPoisoned(
                    shard,
                    f"expected a {expect!r}/{arity} reply, got {reply!r:.200}",
                )
            )
        return reply

    def heartbeat(self, shard: int, proc: Any, conn: Any) -> None:
        """One ping/pong turn confirming the worker is alive and serving."""
        self.request(shard, proc, conn, ("ping",), expect="pong")

    # -- internals ----------------------------------------------------------

    def _recv(self, shard: int, proc: Any, conn: Any) -> Any:
        deadline = time.monotonic() + self.config.turn_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # still alive but silent past the deadline: a hang.  Kill it
                # so the straggler cannot wedge shutdown or wake up later
                # with a stale view of the shard map.
                self._kill(proc)
                raise self._mark(
                    WorkerHung(
                        shard,
                        f"no reply within {self.config.turn_timeout:.1f}s",
                    )
                )
            try:
                if conn.poll(min(self.config.poll_interval, remaining)):
                    return conn.recv()
            except (EOFError, OSError) as exc:
                raise self._mark(
                    WorkerCrashed(shard, self._exit_detail(proc))
                ) from exc
            if not proc.is_alive():
                # the process exited between polls; drain any reply it
                # managed to send before dying, then declare the crash
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                raise self._mark(WorkerCrashed(shard, self._exit_detail(proc)))

    def _mark(self, failure: WorkerFailure) -> WorkerFailure:
        self.lost.setdefault(failure.shard, failure)
        return failure

    @staticmethod
    def _exit_detail(proc: Any) -> str:
        code = proc.exitcode
        if code is None:
            return "pipe closed while the process was still running"
        if code < 0:
            try:
                name = signal.Signals(-code).name
            except ValueError:  # pragma: no cover - unknown signal number
                name = f"signal {-code}"
            return f"process killed by {name}"
        return f"process exited with code {code}"

    @staticmethod
    def _kill(proc: Any) -> None:
        if proc.is_alive():  # pragma: no branch - racing the process exit
            proc.kill()
            proc.join(timeout=5)


class WorkerFaultInjector:
    """Deterministic worker-level fault injection.

    Faults are scheduled against the runtime's epoch counter (every
    ``system.run()`` while started is one epoch) and applied by
    :meth:`~repro.net.shard.ShardedRuntime.run` before the first drain round
    of that epoch.  Kinds:

    * ``kill`` -- SIGKILL the worker process (a real crash, no cleanup);
    * ``hang`` -- make the worker sleep forever, so only the supervisor's
      deadline can notice;
    * ``corrupt`` -- make the worker's next drain reply malformed, so the
      supervisor's shape validation must catch it.

    When a fault names no shard, one is drawn from the alive shards with the
    injector's own seeded RNG -- same seed, same victim, every run.
    """

    KINDS = ("kill", "hang", "corrupt")

    def __init__(
        self,
        schedule: tuple[tuple[int, str, int | None], ...] = (),
        seed: int = 0,
    ) -> None:
        self._rng = random.Random(f"worker-faults:{seed}")
        #: epoch -> [(kind, shard-or-None), ...] still to apply
        self._pending: dict[int, list[tuple[str, int | None]]] = {}
        #: faults armed for whatever epoch starts next
        self._armed: list[tuple[str, int | None]] = []
        #: (epoch, kind, shard) faults actually applied, in order
        self.injected: list[tuple[int, str, int]] = []
        for epoch, kind, shard in schedule:
            self.at_epoch(epoch, kind, shard)

    def at_epoch(self, epoch: int, kind: str, shard: int | None = None) -> None:
        """Schedule ``kind`` against ``shard`` when the runtime enters ``epoch``."""
        if kind not in self.KINDS:
            raise ValueError(f"fault kind must be one of {self.KINDS}, got {kind!r}")
        self._pending.setdefault(epoch, []).append((kind, shard))

    def arm(self, kind: str, shard: int | None = None) -> None:
        """Schedule ``kind`` for the next epoch, whatever its number."""
        if kind not in self.KINDS:
            raise ValueError(f"fault kind must be one of {self.KINDS}, got {kind!r}")
        self._armed.append((kind, shard))

    def take(self, epoch: int, alive: list[int]) -> list[tuple[str, int]]:
        """The faults due at ``epoch``, with unspecified shards resolved."""
        due = self._pending.pop(epoch, [])
        if self._armed:
            due.extend(self._armed)
            self._armed = []
        resolved: list[tuple[str, int]] = []
        for kind, shard in due:
            if shard is None:
                if not alive:  # pragma: no cover - nothing left to break
                    continue
                shard = self._rng.choice(sorted(alive))
            if shard not in alive:
                continue  # already lost: the fault has nothing to do
            resolved.append((kind, shard))
            self.injected.append((epoch, kind, shard))
        return resolved

    @staticmethod
    def kill_process(proc: Any) -> None:
        """SIGKILL ``proc`` -- the real thing, not a cooperative stop."""
        if proc.pid is not None and proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5)


__all__ = [
    "REPLY_SHAPES",
    "ShardSupervisor",
    "SupervisorConfig",
    "WorkerFaultInjector",
]
