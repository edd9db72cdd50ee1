"""The sharded execution runtime: peers partitioned across worker processes.

``P2PMSystem(runtime="sharded", shards=N)`` escapes the single-process
ceiling (ROADMAP item 2): the whole deployment is built in the parent as
usual, then :meth:`ShardedRuntime.start` forks ``N`` worker processes that
each own a deterministic subset of the peers.  Each worker runs its own
:class:`~repro.net.scheduler.EventScheduler` over its shard; a message whose
destination lives in another shard is exported at delivery time into a
per-shard outbox (:class:`ShardOutboxes`, the concrete
:class:`~repro.net.simnet.ShardBoundary`) and shipped to the owning worker
in a wire-encoded batch at the next exchange round.

Execution is a lock-step epoch protocol driven by the parent's
:meth:`ShardedRuntime.run`:

1. the parent sends each worker a ``drain`` command carrying the batches
   destined for its shard (empty in the first round);
2. each worker pushes the imported messages onto its scheduler (at their
   original ``deliver_at``; the local clock only ever advances forward),
   drains its heap to empty, and replies with its outboxes and the result
   deltas of the subscriptions its peers manage;
3. the parent absorbs the results into its handles, routes the outboxes to
   their destination shards and starts the next round; the epoch ends when
   a round moves no cross-shard traffic.

Determinism: shard assignment is :func:`shard_of` -- a salt-free SHA-1 hash
of the peer id -- so the same peer set always partitions the same way
(Python's builtin ``hash`` is process-salted and would not be reproducible).
Within a shard, the scheduler's (time, sequence) order is as deterministic
as the single-process backend; *across* shards, delivery interleaving is not
globally ordered, which is why sharded equivalence is stated over result
multisets, not over event-log fingerprints.

v1 restrictions (each enforced with an explicit error):

* ``failure_mode="oracle"`` only (so channels are never the acknowledged
  kind) and no ``reliable_control`` -- the detector and retransmission layers
  assume one global clock;
* deployment is frozen once workers fork: ``subscribe``/``cancel``/
  ``pause``/``resume`` and peer churn raise after :meth:`start`;
* result callbacks (``handle.on_result``) must be attached before
  :meth:`start`, so the forked workers know which subscriptions need their
  items (not just their counts) shipped back to the parent.

Worker supervision and failover: a turn is one request and one reply, and
the parent waits on the worker's pipe *and* its process sentinel, for at
most ``shard_turn_timeout`` seconds.  A worker that exits mid-turn is
:class:`~repro.net.errors.WorkerCrashed` the moment it dies; one still
silent at the deadline is :class:`~repro.net.errors.WorkerHung` and is
killed; a reply of the wrong shape is
:class:`~repro.net.errors.WorkerPoisoned` and is killed too.  Every such
worker is *lost* (``runtime.lost``): the parent fails over every peer the
dead shard owned through the
ordinary oracle chain -- ``network.fail_peer`` + KadoP re-replication in the
parent mirror *and* (via a control broadcast) in every surviving worker,
with :class:`~repro.monitor.recovery.RecoveryManager` redeployment running
in the parent (whose handles must keep working) and in the worker owning
each affected subscription's manager peer (which executes the replacement
pipeline) -- then drops the dead shard from the epoch roster so subsequent
rounds skip it.  Redeployment placement is deterministic and every process
applies the same fail_peer sequence at the same epoch boundary, so the
surviving processes stay in lock-step agreement about stream ids and
placements.  When more than half the shards are lost the runtime aborts
with a typed :class:`~repro.net.errors.FailoverImpossible` instead of
degrading past quorum -- and never, in any of these paths, hangs.
"""

from __future__ import annotations

import gc
import signal
import time
import traceback
from hashlib import sha1
from multiprocessing import get_context
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Any, Callable

from repro.net.errors import (
    FailoverImpossible,
    ShardWorkerError,
    WorkerCrashed,
    WorkerFailure,
    WorkerHung,
    WorkerPoisoned,
)
from repro.net.runtime import Runtime, SingleProcessRuntime, apply_control
from repro.net.wire import decode_batch, decode_element, encode_batch, encode_element
from repro.streams.item import EOS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.p2pm_peer import P2PMSystem
    from repro.net.simnet import Message

#: peer-id -> shard override hook: ``assigner(peer_id, shards)`` may return
#: a shard index or ``None`` to fall back to :func:`shard_of`
ShardAssigner = Callable[[str, int], int | None]

#: worker faults :meth:`ShardedRuntime.inject_worker_fault` accepts: SIGKILL
#: the process, make it sleep forever, make its next drain reply malformed
WORKER_FAULTS = ("kill", "hang", "corrupt")


def shard_of(peer_id: str, shards: int) -> int:
    """Deterministic shard of ``peer_id`` among ``shards`` workers.

    SHA-1 based so the assignment is stable across processes and runs
    (builtin ``hash`` is salted per process and would shuffle placement).
    """
    digest = sha1(peer_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class ShardOutboxes:
    """Concrete shard boundary: buffers messages leaving the local shard.

    Installed on the worker's network as ``network.boundary``; the delivery
    funnel (:meth:`~repro.net.simnet.SimNetwork._deliver_one`) exports every
    popped message whose destination this shard does not own.  Liveness and
    partition state of the *destination* are judged by the owning shard;
    schedule-time semantics (latency, faults, partition capture) were
    already applied in the sender's shard when the message was scheduled.
    """

    __slots__ = ("owned", "assign", "outboxes")

    def __init__(self, owned: frozenset[str], assign: Callable[[str], int]) -> None:
        self.owned = owned
        self.assign = assign
        self.outboxes: dict[int, list["Message"]] = {}

    def export(self, message: "Message") -> None:
        shard = self.assign(message.destination)
        bucket = self.outboxes.get(shard)
        if bucket is None:
            bucket = self.outboxes[shard] = []
        bucket.append(message)

    def take(self) -> list[tuple[int, tuple]]:
        """Drain the outboxes as ``(destination_shard, wire_batch)`` pairs."""
        if not self.outboxes:
            return []
        out = [
            (shard, encode_batch(messages))
            for shard, messages in sorted(self.outboxes.items())
            if messages
        ]
        self.outboxes.clear()
        return out


class _ResultCollector:
    """Worker-side taps on the delivery streams of owned manager peers.

    Counts every delivered result; ships the items themselves only for
    subscriptions with a parent-side consumer (a result buffer or
    ``on_result`` callbacks attached before the fork).  At bench scale the
    difference matters: counters are a few bytes per drain reply, items are
    the whole result set re-encoded over a pipe.
    """

    def __init__(self, system: "P2PMSystem", owned: frozenset[str]) -> None:
        #: (manager_peer, sub_id) -> [count, items-or-None]
        self.rows: dict[tuple[str, str], list] = {}
        for peer_id in sorted(owned):
            if not system.has_peer(peer_id):
                continue
            peer = system.peer(peer_id)
            database = peer.manager.database
            for sub_id in database.subscription_ids:
                record = database.get(sub_id)
                # infrastructure subscribers on the delivery stream: the
                # result buffer and the publisher; anything beyond them is a
                # user callback, which needs the items shipped back
                infra = (record.results is not None) + (record.publisher is not None)
                ship_items = (
                    record.results is not None or record.valve.subscriber_count > infra
                )
                row = self.rows[(peer_id, sub_id)] = [0, [] if ship_items else None]
                record.valve.subscribe(self._tap(row))

    @staticmethod
    def _tap(row: list) -> Callable[[object], None]:
        def tap(item: Any) -> None:
            if item is EOS:
                return
            row[0] += 1
            if row[1] is not None:
                row[1].append(encode_element(item))

        return tap

    def take(self) -> list[tuple[str, str, int, list | None]]:
        """Drain per-subscription deltas since the previous drain reply."""
        out = []
        for (peer_id, sub_id), row in self.rows.items():
            count, items = row
            if not count:
                continue
            out.append((peer_id, sub_id, count, items))
            row[0] = 0
            if items is not None:
                row[1] = []
        return out


def _worker_main(system: "P2PMSystem", index: int, conn: Any) -> None:
    """Entry point of one forked worker: serve commands over ``conn``.

    The worker inherits the parent's whole object graph via fork and then
    *narrows* it: the heap keeps only events for owned peers (timers stay in
    shard 0 so each fires exactly once system-wide), the boundary redirects
    foreign deliveries, and a local single-process runtime replaces the
    sharded one so ``system.run()``/``system.tick()`` inside this process
    drive the local scheduler directly.
    """
    from repro.net.simnet import Message

    runtime = system.runtime
    assert isinstance(runtime, ShardedRuntime)
    owned = frozenset(runtime.owned_by_shard[index])
    network = system.network
    network.boundary = ShardOutboxes(owned, runtime.shard_for)
    system.runtime = SingleProcessRuntime(system)
    system.runtime.started = True

    def keep(event: object) -> bool:
        if isinstance(event, Message):
            return event.destination in owned
        return index == 0

    network.scheduler.retain(keep)
    collector = _ResultCollector(system, owned)
    # the inherited graph is long-lived shared state: freezing it keeps the
    # cyclic collector from touching (and copying) the parent's COW pages
    gc.freeze()

    errors: list[str] = []
    boundary = network.boundary
    poison_next = False  # injected: reply off-protocol on the next drain
    while True:
        try:
            command = conn.recv()
        except EOFError:
            break
        op = command[0]
        try:
            if op == "drain":
                push = network.scheduler.push
                for batch in command[1]:
                    for message in decode_batch(batch):
                        push(message.deliver_at, message)
                delivered = network.run()
                if poison_next:
                    poison_next = False
                    conn.send(("oops", "injected protocol corruption"))
                else:
                    conn.send(
                        ("out", boundary.take(), delivered, collector.take(), errors)
                    )
                    errors = []
            elif op == "drive":
                _, peer_id, function, method, args = command
                alerter = system.peer(peer_id).alerter(function)
                if alerter is not None:
                    getattr(alerter, method)(*args)
            elif op == "ctrl":
                _, name, args = command
                if name == "tick":
                    system.tick()
                elif name == "fail_peer":
                    # failover broadcast from the parent: every worker runs
                    # the full oracle chain -- mark the peer down,
                    # re-replicate its index keys, and replay the recovery
                    # redeployment against its own peer mirrors.  The
                    # deployer is deterministic, so each worker converges on
                    # the same new-epoch wiring for the peers it owns (the
                    # redeployed operators at source peers live here, not in
                    # the manager's shard); redundant copies of the
                    # subscribe/unsubscribe control messages the replay
                    # ships cross-shard are idempotent at the receiver.
                    (peer_id,) = args
                    if network.fail_peer(peer_id, notify=True):
                        system.kadop.fail_peer(peer_id)
                        system.recovery.handle_peer_failure(peer_id)
                        network.run()
                else:
                    apply_control(network, name, args)
            elif op == "ping":
                conn.send(("pong", index))
            elif op == "hang":
                # injected: a worker stuck in a busy loop / lost to the
                # scheduler; only the parent's turn deadline can notice
                time.sleep(3600.0)
            elif op == "corrupt":
                poison_next = True
            elif op == "stop":
                break
        except Exception:
            err = f"shard {index}: {traceback.format_exc()}"
            # request/reply ops must still reply to keep the protocol in
            # lock-step; fire-and-forget errors ride along on the next reply
            if op == "drain":
                # the collector keeps its deltas for the next drain reply
                conn.send(("out", [], 0, [], errors + [err]))
                errors = []
            elif op == "ping":
                conn.send(("pong", index))
                errors.append(err)
            else:
                errors.append(err)
    conn.close()


class ShardedRuntime(Runtime):
    """Fork-based sharded backend (see module docstring for the protocol)."""

    name = "sharded"

    def __init__(
        self,
        system: "P2PMSystem",
        shards: int = 2,
        assigner: ShardAssigner | None = None,
        shard_turn_timeout: float = 30.0,
    ) -> None:
        super().__init__(system)
        if shards < 2:
            raise ValueError(f"sharded runtime needs shards >= 2, got {shards}")
        self.shards = shards
        self.assigner = assigner
        #: seconds one worker turn may take before the worker counts as hung;
        #: generous, because a missed deadline is a loss, not a retry
        self.shard_turn_timeout = shard_turn_timeout
        self.owned_by_shard: list[list[str]] = []
        self._assignments: dict[str, int] = {}
        self._conns: list[Any] = []
        self._procs: list[Any] = []
        #: shard -> the classified failure that lost its worker; epochs skip it
        self.lost: dict[int, WorkerFailure] = {}
        #: (kind, shard) worker faults to apply when the next epoch starts
        self._faults: list[tuple[str, int]] = []
        #: (epoch, kind, shard) worker faults actually applied, in order
        self.injected_faults: list[tuple[int, str, int]] = []
        #: peers transferred through failover, in fail_peer order -- chaos
        #: scenarios drain this to attribute the failures to their tick
        self.failed_over_peers: list[str] = []
        #: a FailoverImpossible abort, re-raised by every later call
        self._aborted: FailoverImpossible | None = None
        #: counters surfaced by :meth:`stats`
        self.rounds = 0
        self.epochs = 0
        self.messages_exchanged = 0
        self.results_harvested = 0
        self.batches_dropped = 0

    # -- shard assignment --------------------------------------------------

    def shard_for(self, peer_id: str) -> int:
        """The shard owning ``peer_id`` (cached; assigner may override)."""
        shard = self._assignments.get(peer_id)
        if shard is None:
            if self.assigner is not None:
                override = self.assigner(peer_id, self.shards)
                shard = (
                    shard_of(peer_id, self.shards)
                    if override is None
                    else int(override) % self.shards
                )
            else:
                shard = shard_of(peer_id, self.shards)
            self._assignments[peer_id] = shard
        return shard

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self.started:
            return
        system = self.system
        # flush pre-start deployment traffic in-process so workers fork with
        # a quiescent network and only their own residual state to filter
        system.network.run()
        self.owned_by_shard = [[] for _ in range(self.shards)]
        for peer_id in system.peer_ids:
            self.owned_by_shard[self.shard_for(peer_id)].append(peer_id)
        ctx = get_context("fork")
        self.started = True  # workers read this runtime as self-describing
        try:
            for index in range(self.shards):
                parent_conn, child_conn = ctx.Pipe()
                # register the parent end first: if the fork below fails,
                # _teardown() still finds (and closes) this pipe
                self._conns.append(parent_conn)
                try:
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(system, index, child_conn),
                        daemon=True,
                        name=f"p2pm-shard-{index}",
                    )
                    proc.start()
                finally:
                    # the parent's copy of the child end is closed on every
                    # path -- including a Process that never started -- so a
                    # mid-start failure leaks no descriptors
                    child_conn.close()
                self._procs.append(proc)
            # confirm every worker survived the fork and is serving before
            # the first epoch; a startup death is a hard, typed error, not a
            # failover (nothing ran yet)
            for index in range(self.shards):
                self._turn(index, ("ping",))
        except BaseException:
            self.started = False
            self.lost.clear()  # nothing ran: a retried start owns every shard
            self._teardown()
            raise
        # the parent becomes a mirror: workers execute the pipelines, the
        # parent only absorbs harvested results into delivery streams.
        # Disconnect the mirror's publishers so absorption does not
        # re-publish results onto the mirror network (workers forked with
        # the connections intact and keep publishing within their shards).
        self._disconnect_mirror_publishers()

    def shutdown(self) -> None:
        if not self._procs:
            return
        for index, conn in enumerate(self._conns):
            if index in self.lost:
                continue  # already dead; its pipe may be broken
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        self._teardown()

    def _teardown(self) -> None:
        """Reap every worker and close every pipe end; idempotent."""
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=5)
            # join() reaped the exit status; close() releases the process
            # object's sentinel descriptor so nothing leaks into long runs
            proc.close()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._conns = []
        self._procs = []

    # -- execution ---------------------------------------------------------

    def run(self, max_steps: int | None = None) -> int:
        if not self.started:
            return self.system.network.run(max_steps)
        self._check_aborted()
        self.epochs += 1
        lost_at_entry = len(self.lost)
        self._inject_faults()
        delivered = 0
        incoming: list[list] = [[] for _ in range(self.shards)]
        first = True
        while True:
            self.rounds += 1
            # the first round must visit every worker (pending drive/ctrl
            # commands and retained timers live there); later rounds only
            # need the workers that actually have imports to deliver --
            # a worker's heap is empty after its own drain
            active = [
                i
                for i in range(self.shards)
                if i not in self.lost and (first or incoming[i])
            ]
            first = False
            replies, failures = self._exchange(
                {index: ("drain", incoming[index]) for index in active}
            )
            incoming = [[] for _ in range(self.shards)]
            traffic = 0
            for _, outgoing, count, rows, errs in replies:
                self._raise_on(errs)
                delivered += count
                self._absorb(rows)
                for destination, batch in outgoing:
                    if destination in self.lost:
                        # in-flight traffic addressed to a shard that died
                        # this round: crash semantics, dropped and counted
                        self.batches_dropped += 1
                        continue
                    incoming[destination].append(batch)
                    traffic += len(batch[1])
            self.messages_exchanged += traffic
            if failures:
                # fail over *between* rounds, so the parent mirror and every
                # surviving worker apply the same fail_peer sequence at the
                # same protocol boundary (pipe FIFO ordering delivers the
                # ctrl before the next drain).  The next round re-visits
                # every survivor: redeployment control traffic is sitting in
                # their boundaries waiting for a drain to ship it.
                self._failover(failures)
                first = True
                continue
            if not traffic:
                break
        if len(self.lost) > lost_at_entry:
            self.system.network.stats.epochs_stalled += 1
        return delivered

    def tick(self) -> None:
        if self.started:
            self._check_aborted()
            self._broadcast(("ctrl", "tick", ()))
        self.system._local_tick()

    # -- external drivers --------------------------------------------------

    def control(self, op: str, *args: Any) -> Any:
        # the parent mirror tracks control state too (active_partitions,
        # fault model) so scenario drain logic can query it
        result = apply_control(self.system.network, op, args)
        if self.started:
            self._check_aborted()
            self._broadcast(("ctrl", op, args))
        return result

    def drive(self, peer_id: str, function: str, method: str, args: tuple) -> Any:
        if not self.started:
            alerter = self.system.peer(peer_id).alerter(function)
            if alerter is None:
                return False
            return getattr(alerter, method)(*args)
        self._check_aborted()
        shard = self.shard_for(peer_id)
        if shard in self.lost:
            return None  # the peer died with its worker; callers see it down
        try:
            self._send(shard, ("drive", peer_id, function, method, args))
        except WorkerFailure:
            self._failover([shard])
        return None

    def inject_worker_fault(self, kind: str, shard: int) -> None:
        """Apply a real worker fault (:data:`WORKER_FAULTS`) to ``shard``
        when the next :meth:`run` starts its epoch."""
        if kind not in WORKER_FAULTS:
            raise ValueError(f"fault kind must be one of {WORKER_FAULTS}, got {kind!r}")
        self._faults.append((kind, shard))

    # -- capability guards -------------------------------------------------

    def check_mutable(self, verb: str) -> None:
        if self.started:
            raise RuntimeError(
                f"sharded runtime: {verb} is not supported after start_runtime(); "
                "deploy every subscription before starting the workers"
            )

    def check_lifecycle(self, verb: str) -> None:
        if self.started:
            raise RuntimeError(
                f"sharded runtime: {verb} is not supported after start_runtime(); "
                "peer churn needs the single-process backend (or a future "
                "shard-aware membership protocol)"
            )

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        return {
            "shards": self.shards,
            "epochs": self.epochs,
            "rounds": self.rounds,
            "messages_exchanged": self.messages_exchanged,
            "results_harvested": self.results_harvested,
            "peers_per_shard": [len(owned) for owned in self.owned_by_shard],
            "workers_lost": sorted(self.lost),
            "peers_failed_over": len(self.failed_over_peers),
            "batches_dropped": self.batches_dropped,
        }

    # -- internals ---------------------------------------------------------

    #: request op -> (tag, arity) of the only reply the worker may send
    _REPLY_SHAPES = {"drain": ("out", 5), "ping": ("pong", 2)}

    def _exchange(
        self, commands: dict[int, tuple]
    ) -> tuple[list[tuple], list[int]]:
        """Run one request/reply turn per addressed worker, strictly in
        sequence: worker *i* finishes its command before worker *i+1* even
        receives one.

        Sequencing the turns is deliberate.  The shard workers share the
        host's cores with each other, and letting them all drain
        concurrently makes the OS timeslice between them, evicting each
        worker's plan working set from cache several times per round.
        Running the turns back to back keeps exactly one worker hot at a
        time -- the win that makes a large sharded deployment scale -- and
        as a bonus makes pipe deadlock impossible: the worker is always
        blocked in ``recv`` when the parent sends, and the parent only
        sends one command before draining the matching reply.

        The shards whose turn ended in a confirmed worker loss come back as
        a list for the caller to fail over.
        """
        replies = []
        failures: list[int] = []
        for index, command in commands.items():
            try:
                replies.append(self._turn(index, command))
            except WorkerFailure:
                failures.append(index)
        return replies, failures

    def _turn(self, index: int, command: tuple) -> tuple:
        """One supervised turn: send, wait on the pipe and the process,
        validate the reply's shape."""
        conn, proc = self._conns[index], self._procs[index]
        self._send(index, command)
        ready = wait([conn, proc.sentinel], timeout=self.shard_turn_timeout)
        if not ready:
            # alive but silent past the deadline: a hang.  Kill it so the
            # straggler cannot wedge shutdown or wake up later with a stale
            # view of the shard map
            self._kill(proc)
            raise self._lose(
                WorkerHung(index, f"no reply within {self.shard_turn_timeout:.1f}s")
            )
        try:
            # only the sentinel is ready: the worker exited, but a reply it
            # sent before dying may still sit in the pipe
            if conn not in ready and not conn.poll():
                raise EOFError
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            raise self._lose(WorkerCrashed(index, self._exit_detail(proc))) from exc
        tag, arity = self._REPLY_SHAPES[command[0]]
        if not isinstance(reply, tuple) or len(reply) != arity or reply[0] != tag:
            self._kill(proc)  # the worker is off-protocol: state untrusted
            raise self._lose(
                WorkerPoisoned(
                    index, f"expected a {tag!r}/{arity} reply, got {reply!r:.200}"
                )
            )
        return reply

    def _send(self, index: int, command: tuple) -> None:
        """Send one command to one worker; a broken pipe is a confirmed crash."""
        try:
            self._conns[index].send(command)
        except OSError as exc:
            raise self._lose(
                WorkerCrashed(index, self._exit_detail(self._procs[index]))
            ) from exc

    def _lose(self, failure: WorkerFailure) -> WorkerFailure:
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
        """SIGKILL ``proc`` -- the real thing, not a cooperative stop."""
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5)

    def _broadcast(self, command: tuple) -> None:
        failures: list[int] = []
        for index in range(self.shards):
            if index in self.lost:
                continue
            try:
                self._send(index, command)
            except WorkerFailure:
                failures.append(index)
        if failures:
            self._failover(failures)

    def _inject_faults(self) -> None:
        """Apply the faults injected since the previous epoch."""
        faults, self._faults = self._faults, []
        failures: list[int] = []
        for kind, shard in faults:
            if shard in self.lost:
                continue  # already lost: the fault has nothing to do
            self.injected_faults.append((self.epochs, kind, shard))
            if kind == "kill":
                self._kill(self._procs[shard])
                continue
            try:
                self._send(shard, (kind,))
            except WorkerFailure:
                failures.append(shard)
        if failures:
            self._failover(failures)

    def _check_aborted(self) -> None:
        if self._aborted is not None:
            raise self._aborted

    def _failover(self, failures: list[int]) -> None:
        """Transfer every peer of the lost shards through oracle fail_peer.

        The parent mirror applies the full chain (network down-marking,
        KadoP re-replication, recovery redeployment -- its handles must keep
        delivering); every surviving worker receives the same fail_peer
        sequence as a control broadcast.  A survivor dying *during* the
        broadcast simply joins the worklist.  When more than half the shards
        are gone the runtime aborts with FailoverImpossible instead.
        """
        system = self.system
        stats = system.network.stats
        queue = sorted(failures)
        while queue:
            if 2 * len(self.lost) > self.shards:
                self._aborted = FailoverImpossible(sorted(self.lost), self.shards)
                raise self._aborted
            shard = queue.pop(0)
            stats.worker_restarts += 1
            owned = [
                peer_id
                for peer_id in self.owned_by_shard[shard]
                if system.network.is_alive(peer_id)
            ]
            for peer_id in owned:
                self._mirror_fail_peer(peer_id)
                self.failed_over_peers.append(peer_id)
                stats.peers_failed_over += 1
                for other in range(self.shards):
                    if other in self.lost:
                        continue
                    try:
                        self._send(other, ("ctrl", "fail_peer", (peer_id,)))
                    except WorkerFailure:
                        queue.append(other)
        # the mirror's recovery redeploys scheduled control sends the parent
        # never executes (workers run the authoritative copies); drop them
        system.network.scheduler.retain(lambda event: False)

    def _mirror_fail_peer(self, peer_id: str) -> None:
        """The oracle fail_peer chain, applied to the parent mirror.

        Bypasses ``system.fail_peer`` deliberately: user-driven lifecycle
        churn stays frozen post-start (check_lifecycle), but failover *is*
        the runtime and must keep the mirror's recovery state truthful.
        """
        system = self.system
        if not system.network.fail_peer(peer_id, notify=True):
            return
        system.kadop.fail_peer(peer_id)
        system.recovery.handle_peer_failure(peer_id)

    def _disconnect_mirror_publishers(self) -> None:
        system = self.system
        for peer_id in system.peer_ids:
            database = system.peer(peer_id).manager.database
            for sub_id in database.subscription_ids:
                publisher = database.get(sub_id).publisher
                if publisher is not None:
                    publisher.disconnect()

    def _absorb(self, rows: list) -> None:
        """Replay one drain reply's result deltas into the parent's handles.

        Counts update the delivery valves (so ``handle.stats()`` stays
        truthful); shipped items are re-emitted on the parent's delivery
        streams, firing result buffers and ``on_result`` callbacks exactly
        like a local delivery would (the mirror's publishers were
        disconnected at start, and a redeployment builds none, so nothing
        is re-published).  A worker lost mid-turn forfeits the deltas of
        that turn (crash semantics).
        """
        system = self.system
        for manager_peer, sub_id, count, items in rows:
            valve = system.peer(manager_peer).manager.database.get(sub_id).valve
            self.results_harvested += count
            valve.items_delivered += count
            for data in items or ():
                valve.emit(decode_element(data))

    @staticmethod
    def _raise_on(errors: list[str]) -> None:
        if errors:
            raise ShardWorkerError(errors)


__all__ = [
    "WORKER_FAULTS",
    "ShardAssigner",
    "ShardOutboxes",
    "ShardedRuntime",
    "shard_of",
]
