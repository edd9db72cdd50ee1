"""A Chord-style distributed hash table.

The ring stores (key, value) pairs at the successor node of the key's hash.
Lookups are routed through finger tables, so the number of hops grows
logarithmically with the number of nodes -- the property benchmark E8
measures.  Node joins and departures move exactly the keys that change
successor, and an event log of joins/leaves feeds the ``areRegistered``
membership alerter.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.dht.hashing import M_BITS, hash_key

#: Bound on a ring's key -> position memo: positions never go stale, but keys
#: embed stream and peer ids, so the memo is cleared wholesale when full.
POSITION_MEMO_LIMIT = 1 << 16


@dataclass
class LookupResult:
    """Outcome of a key lookup: responsible node and routing cost."""

    node_id: str
    hops: int
    path: list[str] = field(default_factory=list)


class ChordNode:
    """One node of the ring; stores the keys it is responsible for."""

    def __init__(self, node_id: str, position: int) -> None:
        self.node_id = node_id
        self.position = position
        self.storage: dict[str, object] = {}
        # finger table, rebuilt lazily when the ring membership changes
        self.fingers: list["ChordNode"] = []
        # what a lookup walks: the distinct other fingers, farthest first (last: the successor)
        self.routes: list["ChordNode"] = []
        self._fingers_version = -1

    def __repr__(self) -> str:
        return f"ChordNode({self.node_id!r}, position={self.position})"


class ChordRing:
    """The whole ring.

    The implementation is a *simulation* of Chord: global knowledge is used
    to build correct finger tables after each membership change (the paper's
    KadoP similarly assumes a maintained DHT), but lookups strictly follow
    finger-table routing so hop counts are faithful.
    """

    def __init__(self, bits: int = M_BITS) -> None:
        self.bits = bits
        self._nodes: dict[str, ChordNode] = {}
        self._sorted: list[ChordNode] = []
        self._positions: list[int] = []  # sorted positions, parallel to _sorted
        self._version = 0  # bumped on every membership change (invalidates fingers)
        self.membership_log: list[tuple[str, str]] = []  # (event, node_id)
        self._key_positions: dict[str, int] = {}  # hashed once per key; not a home cache
        self.lookup_count = 0
        self.total_hops = 0

    # -- membership -----------------------------------------------------------

    def join(self, node_id: str) -> ChordNode:
        """Add a node; keys now owned by it are transferred from its successor."""
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already in the ring")
        position = hash_key(node_id, self.bits)
        positions = self._positions
        index = bisect_left(positions, position)
        while index < len(positions) and positions[index] == position:
            position = (position + 1) % (1 << self.bits)  # avoid collisions
            index = bisect_left(positions, position)
        node = ChordNode(node_id, position)
        self._nodes[node_id] = node
        self._sorted.insert(index, node)
        self._positions.insert(index, position)
        self._version += 1
        self._transfer_keys_to(node)
        self.membership_log.append(("join", node_id))
        return node

    def leave(self, node_id: str) -> None:
        """Remove a node; its keys move to its successor."""
        node = self._remove(node_id)
        self.membership_log.append(("leave", node_id))
        if self._sorted:
            self._successor_node(node.position).storage.update(node.storage)

    def fail(self, node_id: str) -> list[str]:
        """Abrupt departure: the node crashes and its keys are *lost*.

        Unlike the graceful :meth:`leave`, no key transfer happens -- the
        keys the node stored disappear with it, exactly the situation the
        KadoP layer's re-replication (:meth:`repro.dht.kadop.KadopIndex.fail_peer`)
        must repair.  The ring itself re-stabilises: successor lists and
        finger tables are rebuilt lazily for the surviving nodes.  Returns
        the sorted list of lost keys so the caller can restore them.
        """
        node = self._remove(node_id)
        self.membership_log.append(("fail", node_id))
        return sorted(node.storage)

    def _remove(self, node_id: str) -> ChordNode:
        node = self._nodes.pop(node_id, None)
        if node is None:
            raise KeyError(f"node {node_id!r} is not in the ring")
        index = bisect_left(self._positions, node.position)  # positions are unique
        del self._sorted[index]
        del self._positions[index]
        self._version += 1
        return node

    @property
    def node_ids(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> ChordNode:
        return self._nodes[node_id]

    def nodes(self) -> Iterator[ChordNode]:
        return iter(self._sorted)

    # -- topology maintenance ----------------------------------------------------

    def _successor_node(self, position: int) -> ChordNode:
        """First node whose position is >= ``position`` (wrapping around)."""
        return self._sorted[bisect_left(self._positions, position) % len(self._sorted)]

    def _fingers_of(self, node: ChordNode) -> list[ChordNode]:
        """The node's finger table, rebuilt lazily after membership changes."""
        if node._fingers_version != self._version:
            size = 1 << self.bits
            position = node.position
            fingers: list[ChordNode] = []
            filled = 0
            while filled < self.bits:
                finger = self._successor_node((position + (1 << filled)) % size)
                reach = (finger.position - position) % size or size - 1  # itself: all the way round
                # every power of two up to its distance leads to the same finger
                upto = reach.bit_length()
                fingers += [finger] * (upto - filled)
                filled = upto
            node.fingers = fingers
            distinct = dict.fromkeys(reversed(fingers))  # keeps first occurrences, in order
            node.routes = [finger for finger in distinct if finger is not node]
            node._fingers_version = self._version
        return node.fingers

    def _transfer_keys_to(self, new_node: ChordNode) -> None:
        successor = self._successor_node((new_node.position + 1) % (1 << self.bits))
        if successor is new_node:  # a ring of one
            return
        moved = [
            key
            for key in successor.storage
            if self._successor_node(hash_key(key, self.bits)) is new_node
        ]
        for key in moved:
            new_node.storage[key] = successor.storage.pop(key)

    # -- routing ------------------------------------------------------------------

    def _route(self, keys: Sequence[str], start: str | None, path: list[str] | None) -> list[ChordNode]:
        """Walk the fingers from ``start`` (default: the first node) to the node
        responsible for each key in turn; count one lookup per key and its hops.
        ``path``, for one key only, gets every node visited, the start included."""
        if not self._sorted:
            raise RuntimeError("the ring is empty")
        size = 1 << self.bits
        origin = self._nodes[start] if start else self._sorted[0]
        lookups = len(keys)
        homes: list[ChordNode] = [origin] * lookups
        hops = 0
        for index, key in enumerate(keys):
            try:
                target = self._key_positions[key]
            except KeyError:
                if len(self._key_positions) >= POSITION_MEMO_LIMIT:
                    self._key_positions.clear()
                target = self._key_positions[key] = hash_key(key, self.bits)
            current = origin
            # Follow fingers: jump to the finger closest to (but not past) the
            # target.  Intervals are clockwise distances on plain ints: x lies in
            # (a, b] exactly when 0 < (x - a) % size <= (b - a) % size.
            while True:
                if path is not None:
                    path.append(current.node_id)
                if current._fingers_version != self._version:
                    self._fingers_of(current)
                routes = current.routes
                if not routes:  # a ring of one: the node is its own successor
                    break
                position = current.position
                gap = (target - position) % size
                successor = routes[-1]
                hops += 1
                if 0 < gap <= (successor.position - position) % size:
                    current = successor  # target in (node, successor]: it is responsible
                    if path is not None:
                        path.append(current.node_id)
                    break
                # the farthest finger in (node, target - 1]; the successor is one
                # (it is nearer than the target), or every finger is (gap == 0:
                # the interval ends just behind the node and spans the ring)
                limit = (gap - 1) % size
                for current in routes:
                    if (current.position - position) % size <= limit:
                        break
            homes[index] = current
        self.lookup_count += lookups
        self.total_hops += hops
        return homes

    def lookup(self, key: str, start: str | None = None) -> LookupResult:
        """Route to the node responsible for ``key`` using finger tables."""
        path: list[str] = []
        (node,) = self._route((key,), start, path)
        return LookupResult(node.node_id, len(path) - 1, path)

    # -- storage: one counted lookup each, no LookupResult ---------------------------

    def storage_for(self, key: str, start: str | None = None) -> dict[str, object]:
        """Route to ``key``; the responsible node's storage."""
        return self._route((key,), start, None)[0].storage

    def put(self, key: str, value: object, start: str | None = None) -> None:
        """Store ``value`` under ``key`` at the responsible node."""
        self._route((key,), start, None)[0].storage[key] = value

    def get(self, key: str, start: str | None = None) -> object | None:
        """The value stored under ``key`` (``None`` when absent)."""
        return self._route((key,), start, None)[0].storage.get(key)

    def remove(self, key: str, start: str | None = None) -> bool:
        return self._route((key,), start, None)[0].storage.pop(key, None) is not None

    @property
    def average_hops(self) -> float:
        """Mean hops per lookup since the ring was created."""
        if self.lookup_count == 0:
            return 0.0
        return self.total_hops / self.lookup_count

    def storage_distribution(self) -> dict[str, int]:
        """Number of keys stored per node (used to check load spread)."""
        return {node.node_id: len(node.storage) for node in self._sorted}
