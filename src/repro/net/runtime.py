"""Execution runtimes: who drives the event scheduler, and where.

The simulator stack separates three concerns:

* :class:`~repro.net.scheduler.EventScheduler` -- the deterministic
  (time, sequence) event heap;
* :class:`~repro.net.simnet.SimNetwork` -- transport semantics (latency,
  faults, partitions, liveness) layered on one scheduler;
* a :class:`Runtime` -- *execution* semantics: how ``system.run()`` drains
  the scheduler(s), and how external drivers (workloads, chaos schedules)
  reach into the running system.

Two backends ship today:

* ``"single"`` (:class:`SingleProcessRuntime`, the default): everything in
  one process, one scheduler, byte-identical to the pre-runtime behaviour.
  Golden traces and chaos fingerprints are pinned against this backend.
* ``"sharded"`` (:class:`~repro.net.shard.ShardedRuntime`): the peer set is
  partitioned across forked worker processes, one scheduler shard per
  worker, cross-shard messages batched at shard boundaries.

The interface is deliberately transport-shaped -- ``run``, ``tick``,
``control``, ``drive``, ``shutdown`` -- so a third backend that replaces the
simulated transport with real asyncio sockets can slot in behind the same
facade (each peer's scheduler becomes an event loop, ``drive`` becomes an
RPC, ``control`` becomes an admin API).

The runtime operates on the *system* facade (duck-typed: ``network``,
``peer()``, ``tick`` internals) rather than importing the monitor layer, so
``net`` stays below ``monitor`` in the module layering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.p2pm_peer import P2PMSystem

#: The runtime backends ``P2PMSystem(runtime=...)`` accepts.
RUNTIMES = ("single", "sharded")


def apply_control(network: Any, op: str, args: tuple) -> Any:
    """Apply a control operation to one network instance.

    Shared by every backend: the single-process runtime applies it to the
    only network there is; the sharded runtime applies it to the parent's
    mirror (keeping ``active_partitions`` bookkeeping queryable) *and*
    broadcasts it so every worker applies it to its own shard.
    """
    if op == "partition":
        name, groups = args
        return network.partition(name, *groups)
    if op == "heal":
        return network.heal(args[0])
    if op == "faults":
        return network.set_fault_model(args[0])
    raise ValueError(f"unknown control op {op!r}")


class Runtime:
    """Base class of execution backends (see module docstring)."""

    #: backend name, matching the ``P2PMSystem(runtime=...)`` argument
    name = "abstract"

    def __init__(self, system: "P2PMSystem") -> None:
        self.system = system
        self.started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Transition from construction to execution.

        Deployment (peer creation, subscription submission) happens before
        ``start()``; the single-process backend makes this a no-op, the
        sharded backend forks its workers here.
        """

    def shutdown(self) -> None:
        """Release backend resources (worker processes, pipes).  Idempotent."""

    # -- execution ---------------------------------------------------------

    def run(self, max_steps: int | None = None) -> int:
        """Deliver pending events; returns how many were delivered."""
        raise NotImplementedError

    def tick(self) -> None:
        """One control round (heartbeats, retransmissions, compile counters)."""
        raise NotImplementedError

    # -- external drivers --------------------------------------------------

    def control(self, op: str, *args: Any) -> Any:
        """Apply a network-level control operation (``partition``, ``heal``,
        ``faults``) wherever the network state lives."""
        raise NotImplementedError

    def drive(self, peer_id: str, function: str, method: str, args: tuple) -> Any:
        """Invoke ``method(*args)`` on the alerter hosting ``function`` at
        ``peer_id``, in whichever process owns that peer's state.

        Returns the method's result on backends that execute synchronously,
        ``None`` on backends that enqueue the call.  Returns ``False`` when
        the peer hosts no such alerter.
        """
        raise NotImplementedError

    # -- capability guards -------------------------------------------------

    def check_mutable(self, verb: str) -> None:
        """Raise when deployment mutation (``verb``) is not allowed now."""

    def check_lifecycle(self, verb: str) -> None:
        """Raise when peer lifecycle churn (fail/revive) is not allowed now."""

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Backend counters (``{}`` for the single-process backend)."""
        return {}


class SingleProcessRuntime(Runtime):
    """Today's deterministic default: one process, one scheduler.

    Every method is a thin delegation to the network / system internals the
    facade called directly before the runtime abstraction existed, so the
    behaviour -- and with it every pinned golden trace -- is unchanged.
    """

    name = "single"

    def start(self) -> None:
        self.started = True

    def run(self, max_steps: int | None = None) -> int:
        return self.system.network.run(max_steps)

    def tick(self) -> None:
        self.system._local_tick()

    def control(self, op: str, *args: Any) -> Any:
        return apply_control(self.system.network, op, args)

    def drive(self, peer_id: str, function: str, method: str, args: tuple) -> Any:
        alerter = self.system.peer(peer_id).alerter(function)
        if alerter is None:
            return False
        return getattr(alerter, method)(*args)


def create_runtime(
    name: str,
    system: "P2PMSystem",
    shards: int = 2,
    assigner: Any = None,
    shard_turn_timeout: float = 30.0,
) -> Runtime:
    """Instantiate the runtime backend ``name`` for ``system``.

    ``shard_turn_timeout`` is how many seconds the sharded backend waits on
    one worker turn before it declares the worker hung and fails its shard
    over (see :mod:`repro.net.shard`); the single-process backend ignores
    it.
    """
    if name == "single":
        return SingleProcessRuntime(system)
    if name == "sharded":
        from repro.net.shard import ShardedRuntime

        return ShardedRuntime(
            system,
            shards=shards,
            assigner=assigner,
            shard_turn_timeout=shard_turn_timeout,
        )
    raise ValueError(f"runtime must be one of {RUNTIMES}, got {name!r}")


__all__ = [
    "RUNTIMES",
    "Runtime",
    "SingleProcessRuntime",
    "apply_control",
    "create_runtime",
]
