"""The DHT write path: same routing to the hop, at what the hops cost.

(a) ``ChordRing.lookup``, the storage accesses (``storage_for`` / ``put`` /
    ``get`` / ``remove``) and a batched ``_route(keys, start, None)`` against a
    frozen copy of the routine of commit f3a816a (``lookup`` +
    ``_successor_of`` + ``_closest_preceding`` over ``in_interval``) on random
    join / leave / fail scripts: same node, same hops, same path, same
    ``lookup_count`` / ``total_hops``.
(b) Calls per routed lookup on a warm 1 024-node ring, whatever the hops: a
    storage access is 2 Python calls and builds no ``LookupResult``, a
    ``lookup`` at most 4; no list scan.
(c) Routed lookups per ``publish`` (``2 + T``) / ``unpublish`` (``2 + T``: the
    document is read and removed in one visit), each in at most T + 8 / T + 16
    calls besides the record's own ``terms()``: one routed batch and one set
    call per posting.
(d) One stored copy per published document.
(e) Subscribing the ``filter`` deck routes exactly the lookups and hops it
    did before keys were hashed once and storage stopped building results.
"""

import gc
import math
import sys
from bisect import bisect_left
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.dht import ChordRing, KadopIndex, LookupResult, hash_key
from repro.dht.hashing import M_BITS
from repro.monitor import P2PMSystem, StreamDefinitionDatabase
from repro.monitor.stream_db import StreamDescription


# -- (a) the routine of f3a816a, frozen ---------------------------------------------------


def in_interval(value: int, start: int, end: int, bits: int = M_BITS) -> bool:
    """True when ``value`` lies in the half-open clockwise interval (start, end]."""
    size = 1 << bits
    value %= size
    start %= size
    end %= size
    if start < end:
        return start < value <= end
    if start > end:  # interval wraps around zero
        return value > start or value <= end
    return True  # start == end: the interval is the full ring


def test_frozen_in_interval_plain_and_wrapping():
    assert in_interval(5, 1, 10, bits=8)
    assert not in_interval(1, 1, 10, bits=8)  # half-open at start
    assert in_interval(10, 1, 10, bits=8)  # closed at end
    assert in_interval(3, 250, 10, bits=8)  # wraps
    assert in_interval(255, 250, 10, bits=8)
    assert not in_interval(100, 250, 10, bits=8)
    assert in_interval(42, 7, 7, bits=8)  # full ring


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

    def access(self, how: str, key: str, start: str | None) -> None:
        """A storage access reaches the node the frozen routine names, and
        counts one lookup with the frozen routine's hops."""
        node_id, hops, _ = frozen_lookup(self.ring, key, start)
        storage = self.ring.node(node_id).storage
        marker = object()
        if how == "storage_for":
            assert self.ring.storage_for(key, start) is storage
        elif how == "put":
            self.ring.put(key, marker, start)
            assert storage[key] is marker
        elif how == "get":
            storage[key] = marker
            assert self.ring.get(key, start) is marker
        else:
            storage[key] = marker
            assert self.ring.remove(key, start) and key not in storage
        self.lookups += 1
        self.hops += hops
        assert (self.ring.lookup_count, self.ring.total_hops) == (self.lookups, self.hops)

    def batch(self, keys: list[str], start: str | None) -> None:
        """One batched ``_route`` gives every key the frozen routine's node, and
        counts one lookup per key with the frozen routine's hops."""
        expected = [frozen_lookup(self.ring, key, start) for key in keys]
        homes = self.ring._route(keys, start, None)
        assert [home.node_id for home in homes] == [node_id for node_id, _, _ in expected]
        self.lookups += len(keys)
        self.hops += sum(hops for _, hops, _ in expected)
        assert (self.ring.lookup_count, self.ring.total_hops) == (self.lookups, self.hops)


ACCESSES = ("storage_for", "put", "get", "remove")


@settings(max_examples=40, deadline=None)
@given(
    bits=st.sampled_from([8, 16, 32]),
    size=st.integers(1, 300),
    script=st.lists(
        st.tuples(
            st.sampled_from(["join", "leave", "fail", "lookup", "lookup", *ACCESSES]),
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
        # even numbers start at the ring's first node, as KadoP does
        start = None if number % 2 == 0 else members[number % len(members)]
        if action == "join":
            if len(ring) < (200 if bits == 8 else 300):
                world.join()
        elif action == "lookup":
            world.check(key, start)
        elif action in ACCESSES:
            world.access(action, key, start)
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
        crowded.access(ACCESSES[i % 4], f"key{i}", f"n{(i * 7) % 200}")
    for node_id in ("n3", "n77", "n150"):
        ring.leave(node_id)
        crowded.check(node_id, None)
        crowded.access("get", node_id, None)


@settings(max_examples=40, deadline=None)
@given(
    bits=st.sampled_from([8, 16, 32]),
    size=st.integers(1, 200),
    script=st.lists(
        st.tuples(
            st.sampled_from(["join", "leave", "fail", "batch", "batch"]),
            st.integers(0, 10**6),
            # a small alphabet: batches repeat keys, and meet keys never hashed
            st.lists(st.text("abc:@", max_size=3), max_size=12),
        ),
        max_size=30,
    ),
)
def test_a_batch_routes_each_key_as_the_frozen_routine(bits, size, script):
    world = _Differential(bits, size)
    ring = world.ring
    for action, number, keys in script:
        members = ring.node_ids
        start = None if number % 2 == 0 else members[number % len(members)]
        if action == "join":
            if len(ring) < 200:
                world.join()
        elif action == "batch":
            world.batch(keys, start)
        elif len(ring) > 1:
            getattr(ring, action)(members[number % len(members)])


def test_batch_edge_cases():
    world = _Differential(16, 50)
    ring = world.ring
    world.batch(["a", "b"], None)
    # duplicates, a key first hashed inside the batch, an explicit start
    assert "fresh" not in ring._key_positions
    world.batch(["fresh", "a", "fresh", "a", "fresh"], "n7")
    assert "fresh" in ring._key_positions
    world.batch(["b", "fresh"], "n0")
    # an empty batch routes nothing and counts nothing
    assert ring._route([], "n3", None) == []
    world.batch([], None)
    # one key's path is the path `lookup` reports
    path: list[str] = []
    (home,) = ring._route(["fresh"], "n9", path)
    assert frozen_lookup(ring, "fresh", "n9")[::2] == (home.node_id, path)
    empty = ChordRing()
    for keys in (["a"], []):
        with pytest.raises(RuntimeError):
            empty._route(keys, None, None)
    assert (empty.lookup_count, empty.total_hops) == (0, 0)


# -- (b) a routed lookup costs its hops ---------------------------------------------------


def _profiled(ring: ChordRing, keys: list[str], route) -> tuple[int, int, int]:
    """Python calls, ``LookupResult`` constructions and ``list.index`` scans
    while ``route(key)`` runs for every key."""
    python_calls = results = scans = 0

    def count(frame, event, argument) -> None:
        nonlocal python_calls, results, scans
        if event == "call":
            python_calls += 1
            results += isinstance(frame.f_locals.get("self"), LookupResult)
        elif event == "c_call" and getattr(argument, "__qualname__", "") == "list.index":
            scans += 1

    # a collection inside the count would run `gc.callbacks` (hypothesis
    # registers one) and add their frames to it
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        for key in keys:
            route(key)
    finally:
        sys.setprofile(None)
        gc.enable()
    return python_calls, results, scans


def test_a_lookup_on_1024_nodes_costs_its_hops_not_a_list_scan():
    ring = ChordRing()
    for i in range(1024):
        ring.join(f"peer{i}")
    for node in ring.nodes():
        ring._fingers_of(node)  # warm: rebuilds are paid once per membership change
    keys = [f"stream:{i}@peer{i % 97}" for i in range(400)]
    for key in keys:
        ring.lookup(key)  # warm: a key is hashed once
    calls, results, scans = _profiled(ring, keys, ring.lookup)
    assert scans == 0 and results == len(keys)
    assert calls / len(keys) <= 4  # lookup, _route, LookupResult: none per hop
    for access in (ring.storage_for, ring.get, ring.remove, partial(ring.put, value=1)):
        calls, results, scans = _profiled(ring, keys, access)
        assert (calls, results, scans) == (2 * len(keys), 0, 0)  # the access and _route
    assert ring.lookup_count == 6 * len(keys)
    assert 4.0 < ring.average_hops <= math.log2(1024)
    assert len(ring._key_positions) == len(keys)


# -- (c) one routed lookup per posting -----------------------------------------------------


def _index(peers: int = 12) -> KadopIndex:
    ring = ChordRing()
    for i in range(peers):
        ring.join(f"peer{i}")
    return KadopIndex(ring)


def _stream(peer: str, stream: str, operands: tuple[tuple[str, str], ...] = ()) -> StreamDescription:
    return StreamDescription(peer, stream, True, "Filter", "s", operands)


def _lookups(index: KadopIndex, action) -> int:
    before = index.ring.lookup_count
    action()
    return index.ring.lookup_count - before


def test_publish_routes_once_per_posting_new_or_known():
    index = _index()
    first = _stream("p1", "s1")
    terms = len(first.terms())
    assert terms == 10
    # document + catalogue + one per term, every term new
    assert _lookups(index, lambda: index.publish({"A": first})) == 2 + terms
    # the same terms again, all known
    assert _lookups(index, lambda: index.publish({"B": first})) == 2 + terms
    # a mix: PeerId / StreamId terms new, the rest known
    assert _lookups(index, lambda: index.publish({"C": _stream("p2", "s2")})) == 2 + terms
    # republishing an unchanged document withdraws nothing
    assert _lookups(index, lambda: index.publish({"A": first})) == 2 + terms
    # read and remove the document in one visit, one visit per posting, catalogue
    assert _lookups(index, lambda: index.unpublish("A")) == 2 + terms
    assert _lookups(index, lambda: index.unpublish("A")) == 1  # unknown: one read


# -- (d) one stored object --------------------------------------------------------------------


def test_ring_entry_and_mirror_are_one_object_and_survive_the_home_failing():
    index = _index()
    original = _stream("p1", "s1")
    index.publish({"X": original})
    # the index keeps the published record itself: no copy is made
    assert index.ring.get("doc:X") is original is index.records["X"]
    assert index.document("X") == original.to_element()
    assert index.fail_peer(index.ring.lookup("doc:X").node_id) >= 1
    # the mirror puts that same record back on the new home
    assert index.ring.get("doc:X") is original is index.records["X"]
    assert index.query("/Stream[@PeerId = 'p1']") == [("X", original.to_element())]


# -- (e) the filter deck routes what it is pinned to ----------------------------------------


def filter_deck(n: int) -> list[str]:
    """The ``filter`` workload's subscriptions, in deck order: 4 methods; 70 %
    name a callee, 30 % a duration threshold, 30 % a tree pattern."""
    methods = ("GetTemperature", "GetHumidity", "GetPressure", "GetWind")
    paths = ("$c/alert/Envelope/Body", "$c/alert/Envelope//param", "$c/alert/error")
    texts = []
    for k in range(n):
        role, variant = (k // 4) % 10, k // 40
        let, conditions = "", [f'$c.callMethod = "{methods[k % 4]}"']
        if role < 7:
            conditions.append(f'$c.callee = "{("meteo.com", "tele.com")[variant % 2]}"')
        if role in (0, 3, 7):
            let = "let $d := $c.responseTimestamp - $c.callTimestamp "
            conditions.append(f"$d > {(5, 10, 15)[variant % 3]}")
        if role in (1, 5, 8):
            conditions.append(paths[(variant // 2) % 3])
        texts.append(
            f"for $c in outCOM(<p>hub</p>) {let}where {' and '.join(conditions)} "
            "return <hit><id>{$c.callId}</id></hit>"
        )
    return texts


def test_the_filter_deck_routes_its_pinned_lookups_and_hops():
    system = P2PMSystem(seed=0)
    system.add_peer("hub")
    ring = system.kadop.ring
    handles = system.peer("hub").subscribe_many(
        filter_deck(2000), sub_ids=[f"s{k}" for k in range(2000)], reuse=False
    )
    system.run()
    assert system.stream_db.streams_published == 4001  # the alerter + 2 per subscription
    # (60 014, 119 774) while each description was its own write, routing its
    # document, the catalogue and its 10 or 13 terms.  Now the batch writes
    # the 4 001 descriptions in one call: each routes its document and own
    # terms (6, the alerter's 4), and the catalogue and the 10 skeleton terms
    # of the call's three shapes are routed once: 4 000 x 6 + 4 + 11, with the
    # 2 lookups that laid the catalogue down, is 24 017
    assert (ring.lookup_count, ring.total_hops) == (24017, 47780)
    for handle in handles[::5]:
        handle.cancel()
    system.run()
    assert system.stream_db.descriptions_retracted == 800
    # (72 014, 143 746) before, the same 12 000 lookups and 23 972 hops for the
    # 800 retractions, which are still routed one by one
    assert (ring.lookup_count, ring.total_hops) == (24017 + 12000, 47780 + 23972)


def _calls(call, *arguments) -> int:
    """Python and C calls (``call`` and ``c_call`` events) while ``call(*arguments)``
    runs, ``call`` itself included."""
    calls = 0
    here = sys._getframe()

    def count(frame, event, argument) -> None:
        nonlocal calls
        if event in ("call", "c_call") and frame is not here:  # not `sys.setprofile(None)`
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        call(*arguments)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def _write_cost(write, *arguments) -> tuple[int, int]:
    """The calls ``write(*arguments)`` makes and the lookups it routes."""
    ring = write.__self__.ring
    before = ring.lookup_count
    calls = _calls(write, *arguments)
    return calls, ring.lookup_count - before


def test_a_write_costs_one_set_call_per_posting():
    index = _index()
    for width in (0, 1, 12):
        # each operand adds two terms, its OPeerId and its OStreamId
        record = _stream("p1", f"s{width}", tuple((f"p{i}", f"o{i}") for i in range(width)))
        t = len(record.terms())
        derive = _calls(record.term_parts)  # what the record's own term derivation costs, every writer of it alike
        for doc_id in ("A", "B", "A"):  # warm: every key hashed
            index.publish({doc_id: record})
        assert index.unpublish("A") and index.unpublish("B")
        # every posting new, then every posting known
        for doc_id in ("A", "B"):
            calls, lookups = _write_cost(index.publish, {doc_id: record})
            assert lookups == 2 + t and calls - derive <= t + 8  # 4T + 8 when each posting was routed alone
        # one discard per posting, then each emptied posting set deleted
        for doc_id in ("B", "A"):
            calls, lookups = _write_cost(index.unpublish, doc_id)
            assert lookups == 2 + t and calls - derive <= t + 16  # 4T + 11 when each posting was routed alone
        assert _write_cost(index.unpublish, "A")[1] == 1  # unknown: one read
    assert [key for node in index.ring.nodes() for key in node.storage] == ["__all_documents__"]


def test_n_same_shape_records_route_and_write_the_shared_keys_once():
    """One write of n records of one shape routes the catalogue and each
    skeleton key once and updates each with one ``set.update``; counted under
    ``sys.setprofile`` with the collector off, as ``_calls`` counts."""
    index = _index()
    for warm in ("w0", "w1"):  # every shared posting a set, every key hashed
        index.publish({warm: _stream("p", warm, (("p", "src"),))})
    n = 20
    records = {f"d{k}": _stream("p", f"s{k}", (("p", "src"),)) for k in range(n)}
    skeleton, own = records["d0"].term_parts()
    assert (len(skeleton), len(own)) == (8, 5)
    methods: list[str] = []

    def count(frame, event, argument) -> None:
        if event == "c_call" and argument.__name__ in ("update", "add"):
            methods.append(argument.__name__)

    before = index.ring.lookup_count
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        index.publish(records)
    finally:
        sys.setprofile(None)
        gc.enable()
    # each record's document and own terms, then the catalogue and the skeleton once
    assert index.ring.lookup_count - before == n * (1 + len(own)) + 1 + len(skeleton)
    assert methods.count("update") == 1 + len(skeleton)  # the catalogue, then one per skeleton posting
    assert methods.count("add") == n * (len(own) - 1)  # each own posting the warm-up filed: all but StreamId
    assert StreamDefinitionDatabase(index).verify_index_coherence() == []
