"""The DHT write path: same routing to the hop, at what the hops cost.

(a) ``ChordRing.lookup`` against a frozen copy of the routine it replaced
    (commit f3a816a: ``lookup`` + ``_successor_of`` + ``_closest_preceding``
    over ``hashing.in_interval``) on random join / leave / fail scripts.
    Passes at the parent too -- it pins the routing, not the cost.
(b) Calls per lookup on a 1 024-node ring: 3 Python calls whatever the hops.
    Fails at the parent (52.1 Python calls and 5.8 ``list.index`` scans).
(c) Routed lookups per ``publish`` / ``unpublish``.  The known-terms half
    passes at the parent, the new-terms half fails there (one extra lookup
    per new term).
(d) One stored copy per published document.  The identity half fails at the
    parent (two copies), the failure half passes there.
"""

import math
import sys
from bisect import bisect_left

from hypothesis import given, settings, strategies as st

from repro.dht import ChordRing, KadopIndex, hash_key
from repro.dht.hashing import in_interval
from repro.xmlmodel import parse_xml


# -- (a) the routine of f3a816a, frozen ---------------------------------------------------


def _frozen_successor_node(ring, position):
    index = bisect_left(ring._positions, position)
    return ring._sorted[index if index < len(ring._sorted) else 0]


def _frozen_fingers_of(ring, node):
    return [
        _frozen_successor_node(ring, (node.position + (1 << i)) % (1 << ring.bits))
        for i in range(ring.bits)
    ]


def _frozen_successor_of(ring, node):
    index = ring._sorted.index(node)
    return ring._sorted[(index + 1) % len(ring._sorted)]


def _frozen_closest_preceding(ring, node, target):
    for finger in reversed(_frozen_fingers_of(ring, node)):
        if finger is node:
            continue
        if in_interval(
            finger.position, node.position, (target - 1) % (1 << ring.bits), ring.bits
        ):
            return finger
    return node


def frozen_lookup(ring, key, start=None):
    """``(node_id, hops, path)`` as the parent's ``ChordRing.lookup`` routed it."""
    target = hash_key(key, ring.bits)
    current = ring._nodes[start] if start else ring._sorted[0]
    hops = 0
    path = [current.node_id]
    while True:
        successor = _frozen_successor_of(ring, current)
        if in_interval(target, current.position, successor.position, ring.bits):
            responsible = successor
            break
        next_node = _frozen_closest_preceding(ring, current, target)
        if next_node is current:
            responsible = _frozen_successor_node(ring, target)
            break
        current = next_node
        hops += 1
        path.append(current.node_id)
    if responsible.node_id != path[-1]:
        hops += 1
        path.append(responsible.node_id)
    return responsible.node_id, hops, path


class _Differential:
    """A ring plus the frozen routine's own lookup / hop accounts."""

    def __init__(self, bits: int, size: int) -> None:
        self.ring = ChordRing(bits)
        self.joined = 0
        self.lookups = 0
        self.hops = 0
        for _ in range(size):
            self.join()

    def join(self) -> None:
        self.ring.join(f"n{self.joined}")
        self.joined += 1

    def check(self, key: str, start: str | None) -> None:
        expected = frozen_lookup(self.ring, key, start)
        result = self.ring.lookup(key, start)
        assert (result.node_id, result.hops, result.path) == expected
        self.lookups += 1
        self.hops += expected[1]
        assert (self.ring.lookup_count, self.ring.total_hops) == (self.lookups, self.hops)
        for node_id in result.path:  # and every table it walked is the m-entry table
            node = self.ring.node(node_id)
            assert self.ring._fingers_of(node) == _frozen_fingers_of(self.ring, node)


@settings(max_examples=40, deadline=None)
@given(
    bits=st.sampled_from([8, 16, 32]),
    size=st.integers(1, 300),
    script=st.lists(
        st.tuples(
            st.sampled_from(["join", "leave", "fail", "lookup", "lookup"]),
            st.integers(0, 10**6),
            st.text("abcdef0123456789:@", min_size=0, max_size=12),
        ),
        max_size=40,
    ),
)
def test_routes_exactly_as_the_frozen_routine(bits, size, script):
    if bits == 8:
        size = min(size, 200)  # 256 positions: leave room to resolve collisions
    world = _Differential(bits, size)
    ring = world.ring
    world.check("first", None)
    for action, number, key in script:
        members = ring.node_ids
        if action == "join":
            if len(ring) < (200 if bits == 8 else 300):
                world.join()
        elif action == "lookup":
            # even numbers start at the ring's first node, as KadoP does
            start = None if number % 2 == 0 else members[number % len(members)]
            world.check(key, start)
        elif len(ring) > 1:
            getattr(ring, action)(members[number % len(members)])
        world.check(key, None)


def test_single_node_ring_and_collided_positions():
    alone = _Differential(32, 1)
    for key in ("a", "b", "doc:x", ""):
        alone.check(key, None)
        alone.check(key, "n0")
    assert alone.ring.total_hops == 0
    crowded = _Differential(8, 200)
    ring = crowded.ring
    positions = [node.position for node in ring.nodes()]
    assert positions == sorted(set(positions))  # unique, and kept sorted
    assert any(node.position != hash_key(node.node_id, 8) for node in ring.nodes())
    for i in range(300):
        crowded.check(f"key{i}", f"n{i % 200}")
    for node_id in ("n3", "n77", "n150"):
        ring.leave(node_id)
        crowded.check(node_id, None)


# -- (b) a lookup costs its hops --------------------------------------------------------


def test_a_lookup_on_1024_nodes_costs_its_hops_not_a_list_scan():
    ring = ChordRing()
    for i in range(1024):
        ring.join(f"peer{i}")
    for node in ring.nodes():
        ring._fingers_of(node)  # warm: rebuilds are paid once per membership change
    python_calls = 0
    scans = 0

    def count(frame, event, argument) -> None:
        nonlocal python_calls, scans
        if event == "call":
            python_calls += 1
        elif event == "c_call" and getattr(argument, "__qualname__", "") == "list.index":
            scans += 1

    keys = [f"stream:{i}@peer{i % 97}" for i in range(400)]
    sys.setprofile(count)
    try:
        for key in keys:
            ring.lookup(key)
    finally:
        sys.setprofile(None)
    assert scans == 0
    assert python_calls / len(keys) <= 4  # lookup, hash_key, LookupResult: none per hop
    assert 4.0 < ring.average_hops <= math.log2(1024)


# -- (c) one routed lookup per posting -----------------------------------------------------


def _index(peers: int = 12) -> KadopIndex:
    ring = ChordRing()
    for i in range(peers):
        ring.join(f"peer{i}")
    return KadopIndex(ring)


def _stream(peer: str, stream: str) -> str:
    return (
        f'<Stream PeerId="{peer}" StreamId="{stream}" isAChannel="true">'
        f'<Operator><Filter spec="s"/></Operator><Operands/></Stream>'
    )


def _lookups(index: KadopIndex, action) -> int:
    before = index.ring.lookup_count
    action()
    return index.ring.lookup_count - before


def test_publish_routes_once_per_posting_new_or_known():
    index = _index()
    first = parse_xml(_stream("p1", "s1"))
    terms = len(KadopIndex._terms_of_document(first))
    assert terms == 8
    # document + catalogue + one per term, every term new
    assert _lookups(index, lambda: index.publish(first, "A")) == 2 + terms
    # the same terms again, all known
    assert _lookups(index, lambda: index.publish(first, "B")) == 2 + terms
    # a mix: PeerId / StreamId terms new, the rest known
    assert _lookups(index, lambda: index.publish(parse_xml(_stream("p2", "s2")), "C")) == 2 + terms
    # republishing an unchanged document withdraws nothing
    assert _lookups(index, lambda: index.publish(first, "A")) == 2 + terms
    # read the document, one visit per posting, catalogue, remove the document
    assert _lookups(index, lambda: index.unpublish("A")) == 3 + terms
    assert _lookups(index, lambda: index.unpublish("A")) == 1  # unknown: one read


# -- (d) one stored copy ---------------------------------------------------------------------


def test_ring_entry_and_mirror_are_one_object_and_survive_the_home_failing():
    index = _index()
    original = parse_xml(_stream("p1", "s1"))
    index.publish(original, "X")
    stored, result = index.ring.get("doc:X")
    assert stored is index._doc_replicas["X"] is index.document("X")
    assert stored is not original and stored == original
    assert index.fail_peer(result.node_id) >= 1
    restored = index.document("X")
    assert restored == original
    assert index.query("/Stream[@PeerId = 'p1']") == [("X", restored)]
