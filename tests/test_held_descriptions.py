"""A ``subscribe_many`` writes its descriptions to KadoP in one pass.

While a batch runs, the Stream Definition Database holds each description it
publishes (``StreamDefinitionDatabase.pending``) and hands them to
``KadopIndex.publish`` together: every read of KadoP flushes first, a held
description that is retracted is dropped unwritten, and the batch's end
flushes the rest, a failed one's deployed prefix included.  The stamps, the
replica map and the counters move as each description is published.

This module holds that to a frozen copy of per-description publishing --
the database writing each description as it is published, through KadoP's
one-document write as it was -- over generated database scripts and
generated ``subscribe_many`` / ``cancel`` steps with failing entries: both
leave the same per-node ring storage, records, catalogue, replica map,
stamps and counters, and a coherent index.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads.chaos_feed  # noqa: F401 - registers the chaosFeed alerter
from repro.dht import ChordRing, KadopIndex
from repro.dht.kadop import _DOCS_KEY
from repro.monitor import P2PMSystem, SubmitManyError, StreamDefinitionDatabase, deployment, p2pm_peer
from repro.monitor.stream_db import ReplicaDescription, StreamDescription
from repro.workloads.chaos_feed import CHAOS_FUNCTION


class FrozenKadop(KadopIndex):
    """KadoP's write as it was: one document per call, its ``2 + T`` keys routed in one batch."""

    def publish(self, entries):
        for doc_id, record in entries.items():
            self.publish_one(record, doc_id)

    def publish_one(self, record, doc_id):
        filed = record.terms()
        keys = [f"doc:{doc_id}", _DOCS_KEY, *[f"term:{term}" for term in filed]]
        homes = self.ring._route(keys, None, None)
        homes[0].storage[keys[0]] = record
        previous = self.records.get(doc_id)
        self.records[doc_id] = record
        for key, home in zip(keys[1:], homes[1:]):
            storage = home.storage
            try:
                postings = storage[key]
            except KeyError:
                storage[key] = doc_id
                continue
            if postings.__class__ is not str:
                postings.add(doc_id)
            elif postings != doc_id:
                storage[key] = {postings, doc_id}
        if previous is not None:
            stale = previous.terms() - filed
            if stale:
                self._drop_postings([f"term:{term}" for term in stale], doc_id)
        self._query_cache.clear()


class PerDescription(StreamDefinitionDatabase):
    """The database as it was before a batch held its writes: nothing is
    ever held, and each description is written as it is published."""

    pending = property(lambda self: None, lambda self, value: None)

    def publish_stream(self, description):
        doc_id = f"stream:{description.stream_id}@{description.peer_id}"
        records = self.index.records
        if doc_id in records:
            self._stamp(records[doc_id])
        self._publish(description, doc_id, description.peer_id)
        self._stamp(description)
        self.streams_published += 1
        return doc_id

    def publish_replica(self, peer_id, stream_id, replica_peer_id, replica_stream_id):
        doc_id = f"replica:{replica_stream_id}@{replica_peer_id}"
        records = self.index.records
        if doc_id in records:
            self._unmap_replica(doc_id, records[doc_id])
        self._publish(ReplicaDescription(peer_id, stream_id, replica_peer_id, replica_stream_id), doc_id, replica_peer_id)
        self._replica_map.setdefault((peer_id, stream_id), {})[doc_id] = (replica_peer_id, replica_stream_id)
        self.replicas_published += 1
        return doc_id

    def _publish(self, record, doc_id, owner):
        if self.router is None:
            self.index.publish_one(record, doc_id)
            return
        try:
            self.router.publish_document(record, doc_id, owner)
        except Exception:
            self._withdraw(doc_id, owner)
            raise

    def retract(self, doc_id):
        records = self.index.records
        owner = None
        if doc_id in records:
            record = records[doc_id]
            if type(record) is StreamDescription:
                self._stamp(record)
                owner = record.peer_id
            else:
                self._unmap_replica(doc_id, record)
                owner = record.replica_peer_id
        return self._withdraw(doc_id, owner)


def state(db: StreamDefinitionDatabase) -> tuple:
    """Per-node storage (a posting as the doc ids it lists, the catalogue
    among the keys), records, replica map, stamps and counters."""
    index = db.index
    storage = {
        node.node_id: {key: {value} if isinstance(value, str) else value for key, value in node.storage.items()}
        for node in index.ring.nodes()
    }
    return (storage, index.records, db._replica_map, db.reuse_version, db.watched,
            db.streams_published, db.replicas_published, db.descriptions_retracted)


# -- the database, script by script ---------------------------------------------------------------


def _ring(peers: int = 6) -> ChordRing:
    ring = ChordRing()
    for i in range(peers):
        ring.join(f"node{i}")
    return ring


STREAMS = st.builds(
    StreamDescription,
    st.sampled_from(["p0", "p1"]),
    st.sampled_from(["s0", "s1", "s2", "s3"]),
    st.booleans(),
    st.sampled_from(["Filter", "Join", "outCOM", "Publisher"]),
    st.sampled_from(["a", "b"]),
    st.lists(st.tuples(st.sampled_from(["p0", "p1"]), st.sampled_from(["s0", "s1"])), max_size=2).map(tuple),
)

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("stream"), STREAMS),
        st.tuples(st.just("replica"), st.sampled_from(["s0", "s1"]), st.sampled_from(["r0", "r1", "r2"])),
        st.tuples(st.just("retract"), st.sampled_from(
            [f"stream:s{n}@p{m}" for n in range(4) for m in range(2)] + [f"replica:{r}@q" for r in ("r0", "r1", "r2")])),
        st.tuples(st.just("probe"), st.sampled_from(["p0", "p1"])),
        st.tuples(st.just("hold"), st.booleans()),
    ),
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(OPERATIONS)
def test_a_held_script_leaves_what_per_description_writes_leave(operations):
    held, frozen = StreamDefinitionDatabase(KadopIndex(_ring())), PerDescription(FrozenKadop(_ring()))
    for db in (held, frozen):
        db.watched = {("p0", "outCOM"): 0, ("Filter", (("p0", "s0"),), "a"): 0, ("p1", "Join"): 0}
    for operation in operations:
        kind = operation[0]
        answers = []
        for db in (held, frozen):
            if kind == "stream":
                answers.append(db.publish_stream(operation[1]))
            elif kind == "replica":
                answers.append(db.publish_replica("p0", operation[1], "q", operation[2]))
            elif kind == "retract":
                answers.append(db.retract(operation[1]))
            elif kind == "probe":
                answers.append((db.find_alerter_streams(operation[1], "outCOM"),
                                db.find_operator_streams("Filter", "a", [("p0", "s0")])))
            elif operation[1]:  # start holding, as a batch does
                if db is held and held.pending is None:
                    held.pending = {}
            else:  # the batch's end
                db.flush(hold=False)
        assert answers[:1] == answers[1:]
        if held.pending is None:
            assert state(held) == state(frozen)
    held.flush(hold=False)
    assert state(held) == state(frozen)
    assert held.verify_index_coherence() == [] == frozen.verify_index_coherence()


def test_a_held_description_retracted_is_never_routed():
    db = StreamDefinitionDatabase(KadopIndex(_ring()))
    lookups = db.index.ring.lookup_count
    db.pending = {}
    doc_id = db.publish_stream(StreamDescription("p0", "s0", True, "Filter", "a", (("p0", "src"),)))
    version = db.reuse_version
    assert db.retract(doc_id)
    assert db.reuse_version == version + 1 and db.descriptions_retracted == 1
    db.flush(hold=False)
    assert db.index.ring.lookup_count == lookups and db.index.records == {}
    assert db.verify_index_coherence() == []


# -- whole systems, batch by batch ----------------------------------------------------------------


PEERS = ("s0", "s1", "s2")

TEXTS = [
    f'for $x in {CHAOS_FUNCTION}(<p>s0</p>) where $x.kind = "chaos" return <seen>{{$x.n}}</seen>',
    f'for $x in {CHAOS_FUNCTION}(<p>s0</p>) where $x.kind = "chaos" and $x.n > 1 return <seen>{{$x.n}}</seen>',
    f'for $x in {CHAOS_FUNCTION}(<p>s0</p> <p>s1</p>) where $x.kind = "chaos" return <seen>{{$x.n}}</seen>',
    f'for $x in {CHAOS_FUNCTION}(<p>s2</p>) where $x.kind = "chaos" return <seen n="{{$x.n}}"/> '
    'by publish as channel "shared"',
    f'for $x in {CHAOS_FUNCTION}(<p>s0</p>), $y in {CHAOS_FUNCTION}(<p>s2</p>) '
    'where $x.kind = "chaos" and $x.n = $y.n return <pair><n>{$x.n}</n><m>{$y.n}</m></pair>',
    # deploys its operators and advertises its channel, then its publisher raises
    f'for $x in {CHAOS_FUNCTION}(<p>s1</p>) where $x.n > 2 return <seen>{{$x.n}}</seen> '
    'by publish as channel "refused"',
]
FAILING = len(TEXTS) - 1


@contextmanager
def refusing_publisher():
    """A channel named ``refused`` is created, advertised, then raises."""
    create = deployment.create_publisher

    def refusing(mode, ctx):
        publisher = create(mode, ctx)
        if ctx.params.get("target") == "refused":
            raise RuntimeError("refused")
        return publisher

    deployment.create_publisher = refusing
    try:
        yield
    finally:
        deployment.create_publisher = create


@contextmanager
def frozen_classes():
    """Systems built inside publish each description as it is written."""
    index, database = p2pm_peer.KadopIndex, p2pm_peer.StreamDefinitionDatabase
    p2pm_peer.KadopIndex, p2pm_peer.StreamDefinitionDatabase = FrozenKadop, PerDescription
    try:
        yield
    finally:
        p2pm_peer.KadopIndex, p2pm_peer.StreamDefinitionDatabase = index, database


def system(frozen: bool) -> P2PMSystem:
    if frozen:
        with frozen_classes():
            built = P2PMSystem(seed=9)
    else:
        built = P2PMSystem(seed=9)
    for peer in PEERS:
        built.add_peer(peer)
    return built


def subscribe(built: P2PMSystem, peer: str, texts: list[int], reuse: bool):
    """The handles, and the failing index and its prefix's sub ids if the batch failed."""
    try:
        return built.peer(peer).subscribe_many([TEXTS[i] for i in texts], reuse=reuse), None
    except SubmitManyError as error:
        return list(error.handles), (error.index, [handle.sub_id for handle in error.handles])


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), st.sampled_from(PEERS),
                  st.lists(st.sampled_from(range(len(TEXTS))), min_size=1, max_size=5), st.booleans()),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=40, deadline=None)
@given(STEPS)
def test_batches_leave_what_per_description_publishing_leaves(steps):
    held, frozen = system(frozen=False), system(frozen=True)
    assert type(frozen.stream_db) is PerDescription and type(held.stream_db) is StreamDefinitionDatabase
    live: dict[bool, list] = {False: [], True: []}
    with refusing_publisher():
        for step in steps:
            if step[0] == "subscribe":
                outcomes = [subscribe(built, *step[1:]) for built in (held, frozen)]
                assert outcomes[0][1] == outcomes[1][1]
                for is_frozen, (handles, _) in zip((False, True), outcomes):
                    live[is_frozen] += handles
            elif live[False]:
                for is_frozen in (False, True):
                    live[is_frozen].pop(step[1] % len(live[is_frozen])).cancel()
            assert held.stream_db.pending is None
            assert state(held.stream_db) == state(frozen.stream_db)
    for built in (held, frozen):
        built.run()
        assert built.stream_db.verify_index_coherence() == []


def test_a_failed_batch_keeps_its_prefix_and_routes_nothing_for_the_failing_entry():
    held, frozen, prefix_only = system(frozen=False), system(frozen=True), system(frozen=False)
    lookups = []
    with refusing_publisher():
        for built in (held, frozen):
            before = built.kadop.ring.lookup_count
            with pytest.raises(SubmitManyError) as failed:
                built.peer("s1").subscribe_many([TEXTS[0], TEXTS[1], TEXTS[FAILING]], reuse=False)
            assert failed.value.index == 2 and len(failed.value.handles) == 2
            lookups.append(built.kadop.ring.lookup_count - before)
    before = prefix_only.kadop.ring.lookup_count
    prefix_only.peer("s1").subscribe_many([TEXTS[0], TEXTS[1]], reuse=False)
    assert state(held.stream_db) == state(frozen.stream_db)
    assert held.stream_db.descriptions_retracted == 4  # the failing entry's, its channel's included
    assert not any("refused" in doc_id for doc_id in held.kadop.records)
    assert held.kadop.records == prefix_only.kadop.records
    # the failing entry's descriptions were dropped unrouted; the frozen copy wrote and withdrew them
    assert lookups[0] == prefix_only.kadop.ring.lookup_count - before < lookups[1]


def test_the_pool_writes_fewer_keys_than_per_description_publishing():
    lookups = []
    for frozen in (False, True):
        built = system(frozen)
        before = built.kadop.ring.lookup_count
        for peer in PEERS:
            built.peer(peer).subscribe_many(TEXTS[:FAILING] * 2)
        lookups.append(built.kadop.ring.lookup_count - before)
    assert lookups[0] < lookups[1]


def test_a_router_holds_nothing():
    built = P2PMSystem(seed=5, reliable_control=True)
    for peer in PEERS:
        built.add_peer(peer)
    db, router = built.stream_db, built.stream_db.router
    seen = []
    publish_document = router.publish_document

    def recording(record, doc_id, owner):
        seen.append(dict(db.pending or {}))
        publish_document(record, doc_id, owner)

    router.publish_document = recording
    built.peer("s1").subscribe_many(TEXTS[:FAILING], reuse=False)
    assert len(seen) == db.streams_published + db.replicas_published > 0
    assert not any(seen) and db.pending is None
    assert db.verify_index_coherence() == []
