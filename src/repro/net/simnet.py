"""Deterministic event-queue network simulator with a fault-model kernel.

Peers register with the network; sending a message schedules a delivery
event at ``now + latency(source, destination)``.  Events are processed in
(time, sequence) order, so a run is fully deterministic given the same
inputs and seed.  Latency is derived from peer coordinates on a unit square
(assigned from a seeded RNG unless given explicitly), which also gives the
"networkwise close" notion used by replica selection in Section 5.

On top of the perfect network, the kernel supports the volatile P2P setting
the paper assumes:

* a pluggable :class:`~repro.net.faults.FaultModel` (message loss,
  duplication, reordering jitter, bandwidth-derived latency) consulted at
  delivery-scheduling time;
* named network **partitions** (:meth:`SimNetwork.partition` /
  :meth:`SimNetwork.heal`): messages crossing a partition are *held* and
  rescheduled when the partition heals;
* peer **liveness** (:meth:`SimNetwork.fail_peer` /
  :meth:`SimNetwork.revive_peer`): a failed peer neither sends nor
  receives, and nobody is told -- who notices, and when, is the monitoring
  system's business;
* a structured, deterministic **event log** (enable with
  ``record_events = True``) so chaos scenarios can assert byte-identical
  traces for identical seeds.

Two RNGs are kept deliberately separate: ``topology_rng`` draws peer
coordinates at registration time, ``runtime_rng`` drives fault decisions.
Registering a peer mid-run therefore never perturbs subsequent fault draws,
which keeps churn tests reproducible.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from typing import TYPE_CHECKING, Callable, final

from repro.net.errors import UnknownPeerError
from repro.net.faults import FaultModel
from repro.net.scheduler import EventScheduler
from repro.net.stats import LinkStats, NetworkStats
from repro.xmlmodel.tree import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.peer import Peer


class Message:
    """One message in flight between two peers.

    A plain ``__slots__`` class rather than a dataclass: one instance is
    created per scheduled delivery, which makes construction cost part of
    the network's per-message overhead.
    """

    __slots__ = (
        "source",
        "destination",
        "kind",
        "payload",
        "size",
        "sent_at",
        "deliver_at",
    )

    def __init__(
        self,
        source: str,
        destination: str,
        kind: str,
        payload: Element,
        size: int,
        sent_at: float,
        deliver_at: float,
    ) -> None:
        self.source = source
        self.destination = destination
        self.kind = kind
        self.payload = payload
        self.size = size
        self.sent_at = sent_at
        self.deliver_at = deliver_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.source!r}->{self.destination!r}, {self.kind!r}, "
            f"size={self.size}, deliver_at={self.deliver_at:.6f})"
        )


@final
class Timer:
    """A scheduled callback on the delivery heap (see :meth:`SimNetwork.call_later`).

    Timers share the event queue with messages, so callback order relative
    to deliveries is part of the same deterministic (time, sequence) order.
    Final, so that ``type(event) is Timer`` tells the type checker that every
    other event is a :class:`Message` without a per-message run-time check.
    """

    __slots__ = ("fire_at", "callback", "cancelled")

    def __init__(self, fire_at: float, callback: Callable[[], None]) -> None:
        self.fire_at = fire_at
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (the heap entry becomes a no-op)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"Timer(fire_at={self.fire_at:.6f}, {state})"


class SimNetwork:
    """The simulated network connecting all peers of a scenario.

    Parameters
    ----------
    seed:
        Seed for the network's RNGs (peer coordinates and fault draws use
        independent streams derived from it).
    fault_model:
        Optional :class:`FaultModel` applied to every scheduled delivery;
        ``None`` is a perfect network.  Swap at runtime with
        :meth:`set_fault_model`.
    """

    #: fixed per-message latency added to the coordinate distance
    BASE_LATENCY = 0.001

    def __init__(self, seed: int = 0, fault_model: FaultModel | None = None) -> None:
        self.seed = seed
        #: draws peer coordinates at registration time
        self.topology_rng = random.Random(seed)
        #: drives runtime fault decisions (loss, duplication, jitter)
        self.runtime_rng = random.Random(f"{seed}:runtime")
        self.fault_model = fault_model
        #: the deterministic (time, sequence) event core; the heap holds
        #: messages and timers, tie-broken by a unique sequence number so
        #: entries themselves are never compared
        self.scheduler = EventScheduler()
        self.stats = NetworkStats()
        self._peers: dict[str, "Peer"] = {}
        self._coordinates: dict[str, tuple[float, float]] = {}
        #: memoised per-pair latency; coordinates are fixed at registration,
        #: so entries only drop when a peer unregisters
        self._latency_cache: dict[tuple[str, str], float] = {}
        self._trace: list[Message] = []
        self.trace_enabled = False
        #: deterministic, human-readable log of network events (opt-in)
        self.event_log: list[str] = []
        self.record_events = False
        self._down: set[str] = set()
        self._partitions: dict[str, tuple[frozenset[str], ...]] = {}
        self._held: dict[str, list[Message]] = {}
        #: counters chaos tests and benchmarks read
        self.messages_lost = 0
        self.messages_duplicated = 0
        self.messages_held = 0
        self.messages_dropped_peer_down = 0

    # ------------------------------------------------------------------ #
    # Scheduler delegation
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """The simulated clock (owned by the event scheduler)."""
        return self.scheduler.now

    @now.setter
    def now(self, value: float) -> None:
        self.scheduler.now = value

    # ------------------------------------------------------------------ #
    # Peer management
    # ------------------------------------------------------------------ #

    def register(self, peer: "Peer", coordinates: tuple[float, float] | None = None) -> None:
        """Add ``peer`` to the network, assigning coordinates if not given."""
        if peer.peer_id in self._peers:
            raise ValueError(f"peer {peer.peer_id!r} is already registered")
        self._peers[peer.peer_id] = peer
        if coordinates is None:
            coordinates = (self.topology_rng.random(), self.topology_rng.random())
        self._coordinates[peer.peer_id] = coordinates

    def unregister(self, peer_id: str) -> None:
        """Remove a peer (simulates the peer leaving the network)."""
        self._peers.pop(peer_id, None)
        self._coordinates.pop(peer_id, None)
        self._down.discard(peer_id)
        # a later re-registration may draw different coordinates
        self._latency_cache.clear()

    def peer(self, peer_id: str) -> "Peer":
        try:
            return self._peers[peer_id]
        except KeyError as exc:
            raise UnknownPeerError(f"unknown peer {peer_id!r}") from exc

    def has_peer(self, peer_id: str) -> bool:
        return peer_id in self._peers

    @property
    def peer_ids(self) -> list[str]:
        return sorted(self._peers)

    def coordinates(self, peer_id: str) -> tuple[float, float]:
        try:
            return self._coordinates[peer_id]
        except KeyError as exc:
            raise UnknownPeerError(f"unknown peer {peer_id!r}") from exc

    def distance(self, peer_a: str, peer_b: str) -> float:
        """Euclidean distance between two peers' coordinates."""
        ax, ay = self.coordinates(peer_a)
        bx, by = self.coordinates(peer_b)
        return ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5

    def nearest(self, consumer: str, candidates: list[tuple[str, str]]) -> tuple[str, str]:
        """The ``(peer, stream)`` candidate whose peer is closest to ``consumer``.

        Alive peers rank before failed ones, unregistered ones last, and the
        earliest candidate wins a tie.  One frame, :meth:`distance` written
        out: a subscriber must not pay a call per replica of a popular stream.
        """
        coordinates, down = self._coordinates, self._down
        origin = coordinates.get(consumer)
        best, best_rank = candidates[0], (2, 0.0)
        for candidate in candidates:
            peer = candidate[0]
            if peer not in coordinates:
                continue
            if origin is None:
                raise UnknownPeerError(f"unknown peer {consumer!r}")
            (ax, ay), (bx, by) = origin, coordinates[peer]
            rank = (peer in down, ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5)
            if rank < best_rank:
                best, best_rank = candidate, rank
        return best

    def latency(self, source: str, destination: str) -> float:
        cached = self._latency_cache.get((source, destination))
        if cached is not None:
            return cached
        if source == destination:
            value = 0.0
        else:
            value = self.BASE_LATENCY + self.distance(source, destination) / 100.0
        self._latency_cache[(source, destination)] = value
        return value

    # ------------------------------------------------------------------ #
    # Peer lifecycle (fail / revive)
    # ------------------------------------------------------------------ #

    def fail_peer(self, peer_id: str) -> bool:
        """Mark a registered peer as failed: it can no longer send or receive.

        The peer stays registered (its identity and coordinates survive), so
        it can be revived later; messages addressed to it while down are
        dropped.  Returns False when already down.  The kill is silent, like
        the paper's volatile peers that leave without telling anyone: the
        network only records it.
        """
        if peer_id not in self._peers:
            raise UnknownPeerError(f"cannot fail unknown peer {peer_id!r}")
        if peer_id in self._down:
            return False
        self._down.add(peer_id)
        if self.record_events:
            self._log(f"fail {peer_id}")
        return True

    def revive_peer(self, peer_id: str) -> bool:
        """Bring a failed peer back; returns False when it was not down."""
        if peer_id not in self._peers:
            raise UnknownPeerError(f"cannot revive unknown peer {peer_id!r}")
        if peer_id not in self._down:
            return False
        self._down.discard(peer_id)
        if self.record_events:
            self._log(f"revive {peer_id}")
        return True

    def is_alive(self, peer_id: str) -> bool:
        """True when the peer is registered and not failed."""
        return peer_id in self._peers and peer_id not in self._down

    def down_peers(self) -> frozenset[str]:
        """The currently failed peers."""
        return frozenset(self._down)

    # ------------------------------------------------------------------ #
    # Partitions
    # ------------------------------------------------------------------ #

    def partition(self, name: str, *groups: list[str] | set[str] | tuple[str, ...]) -> None:
        """Split the network: peers in different ``groups`` cannot exchange messages.

        Messages crossing the split are held and rescheduled at
        :meth:`heal` time (a reliable transport retransmits across a
        temporary split).  Peers not named in any group are unaffected.
        """
        if name in self._partitions:
            raise ValueError(f"partition {name!r} is already active")
        if len(groups) < 2:
            raise ValueError("a partition needs at least two groups")
        frozen = tuple(frozenset(group) for group in groups)
        seen: set[str] = set()
        for group in frozen:
            overlap = seen & group
            if overlap:
                raise ValueError(f"peers {sorted(overlap)} appear in two groups")
            seen |= group
        self._partitions[name] = frozen
        self._held[name] = []
        if self.record_events:
            self._log(
                f"partition {name} "
                + "|".join(",".join(sorted(g)) for g in frozen)
            )

    def heal(self, name: str) -> int:
        """End a partition; held messages are rescheduled for delivery.

        Returns the number of messages released.  Unknown names are a no-op
        returning 0 (healing twice is safe in chaos schedules).
        """
        if name not in self._partitions:
            return 0
        del self._partitions[name]
        held = self._held.pop(name, [])
        if self.record_events:
            self._log(f"heal {name} released={len(held)}")
        for message in held:
            if (
                message.source not in self._peers
                or message.destination not in self._peers
            ):
                # an endpoint left the network while the partition was active;
                # drop the message like the delivery path does for departed peers
                if self.record_events:
                    self._log(
                        f"drop peer-gone {message.source}->{message.destination} {message.kind}"
                    )
                continue
            self._schedule(
                message.source,
                message.destination,
                message.kind,
                message.payload,
                message.size,
                record_stats=False,
                apply_faults=False,
            )
        return len(held)

    @property
    def active_partitions(self) -> list[str]:
        return sorted(self._partitions)

    @property
    def held_messages(self) -> int:
        """Messages currently stalled behind active partitions."""
        return sum(len(held) for held in self._held.values())

    def _blocking_partition(self, source: str, destination: str) -> str | None:
        """Name of the first partition separating the two peers (or None)."""
        for name in sorted(self._partitions):
            groups = self._partitions[name]
            source_group = destination_group = -1
            for index, group in enumerate(groups):
                if source in group:
                    source_group = index
                if destination in group:
                    destination_group = index
            if source_group >= 0 and destination_group >= 0 and source_group != destination_group:
                return name
        return None

    # ------------------------------------------------------------------ #
    # Messaging
    # ------------------------------------------------------------------ #

    def send(self, source: str, destination: str, kind: str, payload: Element) -> Message:
        """Queue a message for delivery; returns the scheduled message.

        The fault model, partitions and peer liveness all apply here: one
        crossing a partition is held until heal, and the fault model may
        lose, duplicate or delay what remains.  Dead-peer semantics are
        symmetric and both count ``messages_dropped_peer_down``:

        * a message **from** a failed peer is dropped at send time
          (``drop source-down`` in the event log) -- its in-process objects
          may still try to send during teardown;
        * a message **to** a peer already failed at send time is dropped at
          send time too (``drop destination-down``); a peer that fails
          while the message is in flight still drops it at delivery time
          (same log text, later timestamp).
        """
        if destination not in self._peers:
            raise UnknownPeerError(f"cannot send to unknown peer {destination!r}")
        if source not in self._peers:
            raise UnknownPeerError(f"cannot send from unknown peer {source!r}")
        down = self._down
        if down and (source in down or destination in down):
            self.messages_dropped_peer_down += 1
            if self.record_events:
                end = "source" if source in down else "destination"
                self._log(f"drop {end}-down {source}->{destination} {kind}")
            return self._make_message(source, destination, kind, payload, payload._weight or payload.weight())
        return self._schedule(source, destination, kind, payload, payload._weight or payload.weight())

    def send_many(self, source: str, sends: list[tuple[str, str, Element]]) -> None:
        """Queue a burst of ``(destination, kind, payload)`` sends from one peer.

        A loop of :meth:`send` calls -- same scheduling, fault draws, stats
        and trace -- and literally one unless the network is perfect, which
        is what channel fan-out to thousands of subscribers runs on.  Every
        destination is checked before anything is scheduled: a caller that
        catches :class:`UnknownPeerError` has sent nothing yet.
        """
        peers = self._peers
        if source not in peers:
            raise UnknownPeerError(f"cannot send from unknown peer {source!r}")
        for destination, _, _ in sends:
            if destination not in peers:
                raise UnknownPeerError(f"cannot send to unknown peer {destination!r}")
        down = self._down
        if (
            source in down
            or self.fault_model is not None
            or self._partitions
            or self.trace_enabled
            or self.record_events
        ):
            for destination, kind, payload in sends:
                self.send(source, destination, kind, payload)
            return
        # perfect-network burst: no faults, no partitions, no tracing --
        # inline the whole schedule step (latency lookup, stats, heap push)
        scheduler = self.scheduler
        now = scheduler.now
        latencies = self._latency_cache
        stats = self.stats
        links = stats.links
        queue = scheduler.queue
        heappush = heapq.heappush
        sequence = scheduler.sequence
        total_bytes = 0
        for destination, kind, payload in sends:
            if down and destination in down:
                self.messages_dropped_peer_down += 1
                continue
            size = payload._weight or payload.weight()  # a channel wrapper is born weighed
            total_bytes += size
            # NetworkStats.record, with the two totals added after the loop
            link = links.get((source, destination))
            if link is None:
                link = links[(source, destination)] = LinkStats()
            link.messages += 1
            link.bytes += size
            latency = latencies.get((source, destination))
            if latency is None:
                latency = self.latency(source, destination)
            deliver_at = now + latency
            message = Message(source, destination, kind, payload, size, now, deliver_at)
            sequence += 1
            heappush(queue, (deliver_at, sequence, message))
        stats.total_messages += sequence - scheduler.sequence  # the scheduled ones
        stats.total_bytes += total_bytes
        scheduler.sequence = sequence

    def _make_message(
        self, source: str, destination: str, kind: str, payload: Element, size: int
    ) -> Message:
        return Message(
            source=source,
            destination=destination,
            kind=kind,
            payload=payload,
            size=size,
            sent_at=self.now,
            deliver_at=self.now + self.latency(source, destination),
        )

    def _schedule(
        self,
        source: str,
        destination: str,
        kind: str,
        payload: Element,
        size: int,
        record_stats: bool = True,
        apply_faults: bool = True,
    ) -> Message:
        message = self._make_message(source, destination, kind, payload, size)
        if record_stats:
            # a heal-time reschedule was already recorded (and traced) when
            # the message was first sent
            self.stats.record(source, destination, size)
            if self.trace_enabled:
                self._trace.append(message)
        if self._partitions:
            blocking = self._blocking_partition(source, destination)
            if blocking is not None:
                self.messages_held += 1
                self._held[blocking].append(message)
                if self.record_events:
                    self._log(f"hold {blocking} {source}->{destination} {kind}")
                return message
        if self.fault_model is None or not apply_faults:
            # fast path for the perfect network (and for heal-time
            # reschedules, which model a reliable transport retransmitting
            # across a temporary split: delayed, never lost or duplicated) --
            # no fault draws, one copy, straight onto the heap
            self.scheduler.push(message.deliver_at, message)
            return message
        delays = self.fault_model.delivery_delays(size, self.runtime_rng)
        if delays is None:
            self.messages_lost += 1
            if self.record_events:
                self._log(f"drop loss {source}->{destination} {kind}")
            return message
        if len(delays) > 1:
            self.messages_duplicated += len(delays) - 1
            if self.record_events:
                self._log(f"dup {source}->{destination} {kind} copies={len(delays)}")
        first: Message | None = None
        for delay in delays:
            if delay == 0.0:
                copy = message
            else:
                copy = Message(
                    source,
                    destination,
                    kind,
                    payload,
                    size,
                    message.sent_at,
                    message.deliver_at + delay,
                )
            self.scheduler.push(copy.deliver_at, copy)
            if first is None:
                first = copy
        assert first is not None
        return first

    def set_fault_model(self, fault_model: FaultModel | None) -> None:
        """Swap the active fault model (``None`` restores the perfect network)."""
        self.fault_model = fault_model
        if self.record_events:
            self._log(f"faults {fault_model!r}")

    @property
    def pending_messages(self) -> int:
        return len(self.scheduler)

    @property
    def trace(self) -> list[Message]:
        return list(self._trace)

    def call_later(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` on the event heap at ``now + delay``.

        Returns a :class:`Timer` handle whose :meth:`Timer.cancel` turns the
        pending entry into a no-op.  Timers interleave deterministically
        with message deliveries in (time, sequence) order; the RPC layer
        uses them for per-call deadlines.
        """
        if delay < 0:
            raise ValueError("cannot schedule a timer in the past")
        timer = Timer(self.now + delay, callback)
        self.scheduler.push(timer.fire_at, timer)
        return timer

    def _deliver_one(self, message: Message | Timer) -> None:
        """Deliver (or drop) one dequeued event; the scheduler has already
        advanced the clock to its fire time.

        The single copy of the delivery semantics: both :meth:`step` and the
        :meth:`run` drain loop funnel through here, so drop rules, logging
        and handler dispatch cannot diverge between single-stepping and
        batch draining.  Timers share the funnel: the callback fires unless
        the timer was cancelled.
        """
        if type(message) is Timer:
            if not message.cancelled:
                message.callback()
            return
        destination = message.destination
        if destination in self._down:
            self.messages_dropped_peer_down += 1
            if self.record_events:
                self._log(
                    f"drop destination-down {message.source}->{destination} {message.kind}"
                )
            return
        peer = self._peers.get(destination)
        if peer is not None:  # peer may have left while the message was in flight
            if self.record_events:
                self._log(
                    f"deliver {message.source}->{destination} {message.kind}"
                )
            peer.handle_message(message)

    def step(self) -> bool:
        """Deliver the next queued message.  Returns False when idle."""
        return self.scheduler.step(self._deliver_one)

    def run(self, max_steps: int | None = None) -> int:
        """Deliver messages until the queue drains (or ``max_steps`` is hit).

        Handlers may send further messages; those are processed too.  Returns
        the number of messages delivered.  The drain loop lives in
        :meth:`EventScheduler.drain` and stays flat -- one heap pop and one
        :meth:`_deliver_one` call per message -- because it brackets every
        hop of the delivery path.
        """
        return self.scheduler.drain(self._deliver_one, max_steps)

    def advance(self, duration: float) -> None:
        """Advance the simulated clock without delivering messages."""
        if duration < 0:
            raise ValueError("cannot advance time backwards")
        self.now += duration

    # ------------------------------------------------------------------ #
    # Event log
    # ------------------------------------------------------------------ #

    def _log(self, text: str) -> None:
        if self.record_events:
            self.event_log.append(f"{self.now:.6f} {text}")

    def trace_fingerprint(self) -> str:
        """SHA-256 over the event log -- the golden-trace determinism anchor."""
        digest = hashlib.sha256("\n".join(self.event_log).encode("utf-8"))
        return digest.hexdigest()

