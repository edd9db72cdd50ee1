"""Heartbeat/lease failure detector: notice silent peer deaths.

The paper's volatile peers leave *silently* -- no real deployment gets the
synchronous ``fail_peer`` lifecycle callback the simulator can provide.
This module replaces that oracle with the standard distributed-systems
answer: every peer pings a small deterministic neighbor set each tick, and
sustained silence escalates ALIVE -> SUSPECT -> CONFIRMED with a bounded,
seed-deterministic detection latency.

* **Observation ring.** Peers are ordered by ``sha1(seed:peer_id)``; each
  peer pings its ``fanout`` successors.  Any delivered ping or ack counts
  as evidence of the *sender's* liveness, so a peer stays fresh as long as
  at least one of its targets (or observers) is reachable -- with
  ``fanout=3`` a false positive needs three simultaneous failures.
* **Suspicion debounce.** A peer is SUSPECT after ``suspect_after`` silent
  ticks and CONFIRMED only after ``confirm_after``; fresh evidence while
  merely SUSPECT drops it straight back to ALIVE, so transient jitter or a
  lost heartbeat never triggers a redeploy.
* **Sticky confirmation + rejoin handshake.** Once CONFIRMED, stray
  evidence (e.g. pings held behind a partition and released at heal) does
  *not* resurrect the peer: it must send an explicit ``hb.rejoin``, which
  flips it back to ALIVE and fires ``on_rejoin`` -- where an oracle-mode
  revival reintegrates the peer at once.  A live peer that was
  falsely confirmed (partitioned, not dead) keeps sending rejoins each
  tick, so it reintegrates as soon as connectivity returns.

The detector holds one merged global view (all observers' evidence in one
table) -- a simulation convenience standing in for per-peer views plus a
gossip layer, which keeps confirmations deterministic and cheap to assert.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.xmlmodel.tree import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.peer import Peer
    from repro.net.simnet import Message, SimNetwork

MSG_PING = "hb.ping"
MSG_ACK = "hb.ack"
MSG_REJOIN = "hb.rejoin"

ALIVE = "alive"
SUSPECT = "suspect"
CONFIRMED = "confirmed"


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs trading detection latency against false positives.

    ``suspect_after``/``confirm_after`` are measured in detector ticks of
    silence; the steady-state baseline is one tick (evidence from the
    previous tick's deliveries), so the defaults suspect after one fully
    silent tick and confirm after two -- a detection latency of two ticks
    past the kill, asserted in scenarios as ``detects-within:4``.
    """

    fanout: int = 3
    suspect_after: int = 2
    confirm_after: int = 3


class HeartbeatDetector:
    """Failure detection for every peer attached to one :class:`SimNetwork`."""

    def __init__(self, network: SimNetwork, seed: int = 0) -> None:
        self.network = network
        self.seed = seed
        self.config = DetectorConfig()
        self.tick_count = 0
        #: peers in sha1(seed:peer_id) order -- the observation ring
        self._ring: list[str] = []
        self._ring_keys: list[str] = []
        self._targets_cache: dict[str, list[str]] | None = None
        self._last_seen: dict[str, int] = {}
        self._status: dict[str, str] = {}
        #: (tick, peer) transition logs, in detection order
        self.suspicions: list[tuple[int, str]] = []
        self.confirmations: list[tuple[int, str]] = []
        self.rejoins: list[tuple[int, str]] = []
        self.on_confirm: Callable[[str], None] | None = None
        self.on_rejoin: Callable[[str], None] | None = None

    # -- membership -------------------------------------------------------- #

    def attach(self, peer: Peer) -> None:
        """Enroll ``peer``: register heartbeat handlers and join the ring."""
        peer_id = peer.peer_id
        if peer_id in self._status:
            raise ValueError(f"peer {peer_id!r} is already attached")
        peer.register_handler(MSG_PING, self._on_ping)
        peer.register_handler(MSG_ACK, self._on_ack)
        peer.register_handler(MSG_REJOIN, self._on_rejoin)
        key = hashlib.sha1(f"{self.seed}:{peer_id}".encode("utf-8")).hexdigest()
        index = bisect.bisect(self._ring_keys, key)
        self._ring_keys.insert(index, key)
        self._ring.insert(index, peer_id)
        self._status[peer_id] = ALIVE
        self._last_seen[peer_id] = self.tick_count
        self._targets_cache = None

    def targets(self, peer_id: str) -> list[str]:
        """The ring successors ``peer_id`` pings (its observation set)."""
        cache = self._targets_cache
        if cache is None:
            cache = self._targets_cache = {}
            ring = self._ring
            count = len(ring)
            fanout = min(self.config.fanout, count - 1)
            for index, pid in enumerate(ring):
                cache[pid] = [
                    ring[(index + step) % count] for step in range(1, fanout + 1)
                ]
        return cache[peer_id]

    # -- queries ----------------------------------------------------------- #

    def status(self, peer_id: str) -> str:
        return self._status[peer_id]

    def suspected_peers(self) -> list[str]:
        """Peers currently SUSPECT (deterministic ring order)."""
        return [pid for pid in self._ring if self._status[pid] == SUSPECT]

    def confirmed_peers(self) -> frozenset[str]:
        """Peers currently CONFIRMED dead."""
        return frozenset(
            pid for pid, status in self._status.items() if status == CONFIRMED
        )

    # -- the per-tick protocol --------------------------------------------- #

    def tick(self) -> None:
        """One detector round: evaluate accumulated evidence, then ping.

        Callers run the network between ticks (the chaos scenarios call
        ``system.tick()`` then ``system.run()``), so evidence evaluated
        here is everything delivered since the previous tick.
        """
        self.tick_count += 1
        self._evaluate()
        self._broadcast()

    def _evaluate(self) -> None:
        config = self.config
        for peer_id in self._ring:
            status = self._status[peer_id]
            if status == CONFIRMED:
                continue
            silence = self.tick_count - self._last_seen[peer_id]
            if status == ALIVE and silence >= config.suspect_after:
                status = self._status[peer_id] = SUSPECT
                self.suspicions.append((self.tick_count, peer_id))
            if status == SUSPECT and silence >= config.confirm_after:
                self._status[peer_id] = CONFIRMED
                self.confirmations.append((self.tick_count, peer_id))
                if self.on_confirm is not None:
                    self.on_confirm(peer_id)

    def _broadcast(self) -> None:
        network = self.network
        stats = network.stats
        payload = Element("hb", {"t": str(self.tick_count)})
        for peer_id in self._ring:
            if not network.is_alive(peer_id):
                continue
            if self._status[peer_id] == CONFIRMED:
                # falsely confirmed but actually alive (e.g. partitioned):
                # keep asking back in until an observer hears the rejoin
                for target in self.targets(peer_id):
                    network.send(peer_id, target, MSG_REJOIN, payload)
                continue
            for target in self.targets(peer_id):
                network.send(peer_id, target, MSG_PING, payload)
                stats.heartbeats_sent += 1

    # -- evidence handlers (run at the receiving peer) ---------------------- #

    def _saw(self, peer_id: str) -> None:
        if self._status.get(peer_id) == CONFIRMED:
            return  # sticky: only an explicit rejoin resurrects a confirmed peer
        self._last_seen[peer_id] = self.tick_count
        if self._status.get(peer_id) == SUSPECT:
            self._status[peer_id] = ALIVE

    def _on_ping(self, message: Message) -> None:
        self._saw(message.source)
        self.network.send(
            message.destination,
            message.source,
            MSG_ACK,
            Element("hb", {"t": str(self.tick_count)}),
        )

    def _on_ack(self, message: Message) -> None:
        self._saw(message.source)

    def _on_rejoin(self, message: Message) -> None:
        peer_id = message.source
        if self._status.get(peer_id) != CONFIRMED:
            self._saw(peer_id)  # duplicate rejoin copies are plain evidence
            return
        self._status[peer_id] = ALIVE
        self._last_seen[peer_id] = self.tick_count
        self.rejoins.append((self.tick_count, peer_id))
        if self.on_rejoin is not None:
            self.on_rejoin(peer_id)
