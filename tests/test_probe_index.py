"""The match probes read KadoP, held to the probe-keyed database they replaced.

``find_alerter_streams`` and ``find_operator_streams`` are exact-term
lookups over KadoP's postings (``KadopIndex.lookup``); the database keeps no
description of its own.  ``ProbeKeyedDatabase`` is a frozen, standalone
copy of the database that filed each ``<Stream>`` in memory under the one
probe key that reads it -- ``(peer, alerter kind)`` without operands,
``(operator, sorted operands, spec)`` with; a Publisher output was not
filed -- and answered every probe from that filing, with KadoP a write-behind
replica.  Generated publish / republish / retract / replica / peer-failure /
rejoin sequences drive both; after every step each probe answers the same in
the same order, and ``reuse_version``, ``watched``, ``find_replicas``,
``all_stream_descriptions()`` and KadoP's ``document_ids`` agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht import KadopIndex
from repro.monitor import StreamDefinitionDatabase
from repro.monitor.stream_db import ReplicaDescription, StreamDescription


class ProbeKeyedDatabase:
    """The Stream Definition Database with its own probe-keyed filing, frozen."""

    def __init__(self, index):
        self.index = index
        self._descriptions = {}
        self._by_probe = {}
        self._replica_map = {}
        self._replica_keys = {}
        self.reuse_version = 0
        self.watched = {}

    def publish_stream(self, description):
        doc_id = f"stream:{description.stream_id}@{description.peer_id}"
        self.index.publish({doc_id: description})
        if doc_id in self._descriptions:
            self._deindex_document(doc_id)
        self._file(doc_id, description)
        return doc_id

    def publish_replica(self, peer_id, stream_id, replica_peer_id, replica_stream_id):
        doc_id = f"replica:{replica_stream_id}@{replica_peer_id}"
        self.index.publish({doc_id: ReplicaDescription(peer_id, stream_id, replica_peer_id, replica_stream_id)})
        if doc_id in self._replica_keys:
            self._deindex_document(doc_id)
        self._replica_map.setdefault((peer_id, stream_id), {})[doc_id] = (replica_peer_id, replica_stream_id)
        self._replica_keys[doc_id] = (peer_id, stream_id)
        return doc_id

    def retract(self, doc_id):
        self._deindex_document(doc_id)
        return self.index.unpublish(doc_id)

    def find_alerter_streams(self, peer_id, alerter_kind):
        doc_ids = self._by_probe.get((peer_id, alerter_kind), ())
        return [self._descriptions[doc_id] for doc_id in sorted(doc_ids)]

    def find_operator_streams(self, operator, spec, operands):
        doc_ids = self._by_probe.get((operator, tuple(sorted(operands)), spec), ())
        return [self._descriptions[doc_id] for doc_id in sorted(doc_ids)]

    def find_replicas(self, peer_id, stream_id):
        providers = self._replica_map.get((peer_id, stream_id), {})
        return [providers[doc_id] for doc_id in sorted(providers)]

    def all_stream_descriptions(self):
        return [self._descriptions[doc_id] for doc_id in sorted(self._descriptions)]

    def _file(self, doc_id, description):
        self._descriptions[doc_id] = description
        operator, operands = description.operator, description.operands
        if operator == "Publisher":
            return
        key = (operator, tuple(sorted(operands)), description.spec) if operands else (description.peer_id, operator)
        self._by_probe.setdefault(key, set()).add(doc_id)
        self.reuse_version += 1
        if key in self.watched:
            self.watched[key] = self.reuse_version

    def _deindex_document(self, doc_id):
        description = self._descriptions.pop(doc_id, None)
        if description is not None:
            operator, operands = description.operator, description.operands
            if operator != "Publisher":
                key = (operator, tuple(sorted(operands)), description.spec) if operands else (description.peer_id, operator)
                bucket = self._by_probe[key]
                bucket.discard(doc_id)
                if not bucket:
                    del self._by_probe[key]
                self.reuse_version += 1
                if key in self.watched:
                    self.watched[key] = self.reuse_version
            return
        original = self._replica_keys.pop(doc_id, None)
        if original is None:
            return
        providers = self._replica_map.get(original, {})
        providers.pop(doc_id, None)
        if not providers:
            self._replica_map.pop(original, None)


PEERS = ("a.com", "b.com")
KINDS = ("inCOM", "outCOM")

#: every description class but the replica; equal stream ids republish
#: one document under another description, across classes too
DESCRIPTIONS = [
    # static alerter outputs
    *(StreamDescription(peer, kind, True, kind, "s-alerter", ()) for peer in PEERS for kind in KINDS),
    # membership-driven sources: an alerter kind over the membership stream
    *(StreamDescription(peer, f"dyn-{kind}", True, kind, "s-dynamic", ((peer, "members"),))
      for peer in PEERS for kind in KINDS),
    # operator outputs
    StreamDescription("a.com", "f1", True, "Filter", "s-x", (("a.com", "inCOM"),)),
    StreamDescription("b.com", "f2", True, "Filter", "s-x", (("a.com", "inCOM"),)),
    StreamDescription("a.com", "f3", False, "Filter", "s-y", (("a.com", "inCOM"),)),
    StreamDescription("b.com", "j1", True, "Join", "s-j", (("b.com", "inCOM"), ("a.com", "outCOM"))),
    StreamDescription("a.com", "j2", True, "Join", "s-j", (("a.com", "outCOM"), ("b.com", "inCOM"))),
    # Publisher outputs
    StreamDescription("b.com", "pub", True, "Publisher", "s-p", (("a.com", "f1"),)),
    StreamDescription("a.com", "pub", True, "Publisher", "s-p", (("a.com", "f1"),)),
    # republications of stream ids above under another class
    StreamDescription("a.com", "f1", True, "Union", "s-u", (("a.com", "inCOM"), ("b.com", "inCOM"))),
    StreamDescription("a.com", "f1", True, "outCOM", "s-alerter", ()),
    StreamDescription("b.com", "pub", True, "Filter", "s-x", (("a.com", "inCOM"),)),
    StreamDescription("a.com", "inCOM", True, "inCOM", "s-dynamic", (("a.com", "members"),)),
]

#: (original peer, original stream, replica peer, replica stream); the last
#: two share a doc id, so the later one republishes it for another original
REPLICAS = [
    ("a.com", "f1", "b.com", "f1-copy"),
    ("a.com", "outCOM", "c.com", "copy"),
    ("b.com", "inCOM", "c.com", "copy"),
]

RING = ("n1", "n2", "n3", "n4")

STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["publish", "retract", "watch"]), st.integers(0, len(DESCRIPTIONS) - 1)),
        st.tuples(st.sampled_from(["replica", "unreplica"]), st.integers(0, len(REPLICAS) - 1)),
        st.tuples(st.sampled_from(["fail", "join"]), st.sampled_from(RING[1:])),
    ),
    max_size=30,
)


def probe_key(description):
    """The key of the probe that reads ``description`` (None: no probe does)."""
    if description.operator == "Publisher":
        return None
    if description.operands:
        return description.operator, tuple(sorted(description.operands)), description.spec
    return description.peer_id, description.operator


def make_index():
    index = KadopIndex()
    for node in RING:
        index.join_peer(node)
    return index


def step(db, action, argument, down):
    if action == "publish":
        return db.publish_stream(DESCRIPTIONS[argument])
    if action == "retract":
        description = DESCRIPTIONS[argument]
        return db.retract(f"stream:{description.stream_id}@{description.peer_id}")
    if action == "watch":  # what a signature cache entry that read this probe does
        key = probe_key(DESCRIPTIONS[argument])
        if key is not None:
            db.watched.setdefault(key, db.reuse_version)
        return key
    if action == "replica":
        return db.publish_replica(*REPLICAS[argument])
    if action == "unreplica":
        _, _, peer, stream = REPLICAS[argument]
        return db.retract(f"replica:{stream}@{peer}")
    if action == "fail" and argument not in down:
        return db.index.fail_peer(argument)
    if action == "join" and argument in down:
        return db.index.join_peer(argument)
    return None


def assert_probes_agree(db, frozen):
    assert db.verify_index_coherence() == []
    assert db.all_stream_descriptions() == frozen.all_stream_descriptions()
    assert db.index.document_ids == frozen.index.document_ids
    assert db.reuse_version == frozen.reuse_version
    assert db.watched == frozen.watched
    for description in DESCRIPTIONS:
        operator, spec, operands = description.operator, description.spec, list(description.operands)
        if operands:
            assert db.find_operator_streams(operator, spec, operands) == frozen.find_operator_streams(
                operator, spec, operands
            )
        else:
            assert db.find_alerter_streams(description.peer_id, operator) == frozen.find_alerter_streams(
                description.peer_id, operator
            )
        assert db.find_replicas(description.peer_id, description.stream_id) == frozen.find_replicas(
            description.peer_id, description.stream_id
        )


@settings(max_examples=80, deadline=None)
@given(STEPS)
def test_the_kadop_probes_answer_as_the_probe_keyed_filing_did(steps):
    db, frozen = StreamDefinitionDatabase(make_index()), ProbeKeyedDatabase(make_index())
    down: set[str] = set()
    for action, argument in steps:
        assert step(db, action, argument, down) == step(frozen, action, argument, down)
        if action == "fail":
            down.add(argument)
        elif action == "join":
            down.discard(argument)
        assert_probes_agree(db, frozen)


def test_each_filing_stamps_the_one_key_its_probe_reads():
    db = StreamDefinitionDatabase()
    static, dynamic = DESCRIPTIONS[0], DESCRIPTIONS[4]
    assert (static.peer_id, static.operator) == (dynamic.peer_id, dynamic.operator)
    db.watched = {probe_key(static): 0, probe_key(dynamic): 0, (static.operator, (), static.spec): 0}
    db.publish_stream(dynamic)
    assert db.watched == {probe_key(static): 0, probe_key(dynamic): 1, (static.operator, (), static.spec): 0}
    db.publish_stream(static)
    assert db.watched == {probe_key(static): 2, probe_key(dynamic): 1, (static.operator, (), static.spec): 0}
    assert db.find_alerter_streams(static.peer_id, static.operator) == [static]
    publisher = DESCRIPTIONS[13]
    assert publisher.operator == "Publisher"
    db.publish_stream(publisher)
    assert db.reuse_version == 2 and db.find_operator_streams(
        "Publisher", publisher.spec, list(publisher.operands)
    ) == []


def test_a_probe_routes_one_lookup_per_term():
    db = StreamDefinitionDatabase(make_index())
    for description in DESCRIPTIONS:
        db.publish_stream(description)
    ring = db.index.ring
    for description in DESCRIPTIONS:
        before = ring.lookup_count
        if description.operands:
            db.find_operator_streams(description.operator, description.spec, list(description.operands))
            terms = 1 + len(description.operands)
        else:
            db.find_alerter_streams(description.peer_id, description.operator)
            terms = 2
        # a Publisher output answers no probe, and its probe routes nothing
        assert ring.lookup_count - before == (0 if description.operator == "Publisher" else terms)


def test_a_record_written_straight_into_kadop_is_found_and_retracted_from_its_peer():
    db = StreamDefinitionDatabase(make_index())
    join = DESCRIPTIONS[11]
    db.index.publish({"written-elsewhere": join})
    assert db.find_operator_streams(join.operator, join.spec, list(reversed(join.operands))) == [join]
    assert db.all_stream_descriptions() == [join]
    retracted = []

    class Recording:
        def retract_document(self, doc_id, owner):
            retracted.append((doc_id, owner))
            return db.index.unpublish(doc_id)

    db.router = Recording()
    assert db.retract("written-elsewhere")
    assert retracted == [("written-elsewhere", join.peer_id)]
    assert db.find_operator_streams(join.operator, join.spec, list(join.operands)) == []
