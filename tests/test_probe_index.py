"""One index keyed by the reuse probe, held to the two indexes it replaced.

The Stream Definition Database files each ``<Stream>`` description once,
under the key of the one Section-5 probe that reads it: ``(peer, alerter
kind)`` without operands, ``(operator, sorted operands, spec)`` with; a
Publisher output answers no probe and is not filed.  ``TwoIndexDatabase``
is a frozen copy of the filing it replaced, which filed every description
by ``(operator, operands)`` and by ``(peer, operator)`` and stamped both
keys.  Generated publish / republish / retract / replica / peer-failure
sequences drive both; after every step each probe-shaped query,
``reuse_version`` and ``watched`` agree.  The one difference is the
membership-driven source, an alerter kind over the membership stream: the
old filing answered the alerter probe ``(peer, kind)`` with it, and stamped
that key for it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht import KadopIndex
from repro.monitor import StreamDefinitionDatabase
from repro.monitor.stream_db import StreamDescription


class TwoIndexDatabase(StreamDefinitionDatabase):
    """The filing before the probe-keyed index, frozen."""

    def __init__(self, index=None):
        super().__init__(index)
        self._by_operator = {}
        self._by_alerter = {}

    def find_alerter_streams(self, peer_id, alerter_kind):
        doc_ids = self._by_alerter.get((peer_id, alerter_kind), ())
        return [self._descriptions[doc_id] for doc_id in sorted(doc_ids)]

    def find_operator_streams(self, operator, spec, operands):
        doc_ids = self._by_operator.get((operator, tuple(sorted(operands))), ())
        found = [self._descriptions[doc_id] for doc_id in sorted(doc_ids)]
        if spec:
            found = [description for description in found if description.spec == spec]
        return found

    def _file(self, doc_id, description):
        self._descriptions[doc_id] = description
        operator_key = (description.operator, tuple(sorted(description.operands)))
        alerter_key = (description.peer_id, description.operator)
        self._by_operator.setdefault(operator_key, set()).add(doc_id)
        self._by_alerter.setdefault(alerter_key, set()).add(doc_id)
        if description.operator != "Publisher":
            self.reuse_version += 1
            for key in (alerter_key, (description.operator, operator_key[1], description.spec)):
                if key in self.watched:
                    self.watched[key] = self.reuse_version

    def _deindex_document(self, doc_id):
        description = self._descriptions.pop(doc_id, None)
        if description is not None:
            operator_key = (description.operator, tuple(sorted(description.operands)))
            alerter_key = (description.peer_id, description.operator)
            for filing, key in ((self._by_operator, operator_key), (self._by_alerter, alerter_key)):
                bucket = filing.get(key)
                if bucket is not None:
                    bucket.discard(doc_id)
                    if not bucket:
                        del filing[key]
            if description.operator != "Publisher":
                self.reuse_version += 1
                for key in (alerter_key, (description.operator, operator_key[1], description.spec)):
                    if key in self.watched:
                        self.watched[key] = self.reuse_version
            return description.peer_id
        original = self._replica_keys.pop(doc_id, None)
        if original is None:
            return None
        providers = self._replica_map.get(original, {})
        replica = providers.pop(doc_id, None)
        if not providers:
            self._replica_map.pop(original, None)
        return replica[0] if replica is not None else None


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


def make_database(cls):
    index = KadopIndex()
    for node in RING:
        index.join_peer(node)
    return cls(index)


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


def assert_probes_agree(db, frozen, dynamic_keys):
    assert db.verify_index_coherence() == []
    assert db.all_stream_descriptions() == frozen.all_stream_descriptions()
    assert db.index.document_ids == frozen.index.document_ids
    assert db.reuse_version == frozen.reuse_version
    for description in DESCRIPTIONS:
        key = probe_key(description)
        if key is None:
            # no probe asks for a Publisher output, and the index holds none
            assert db.find_operator_streams("Publisher", description.spec, list(description.operands)) == []
        elif description.operands:
            args = (description.operator, description.spec, list(description.operands))
            assert db.find_operator_streams(*args) == frozen.find_operator_streams(*args)
        else:
            found = frozen.find_alerter_streams(*key)
            # the exception: the old filing answered with membership-driven sources too
            assert db.find_alerter_streams(*key) == [d for d in found if not d.operands]
        assert db.find_replicas(description.peer_id, description.stream_id) == frozen.find_replicas(
            description.peer_id, description.stream_id
        )
    assert db.watched.keys() == frozen.watched.keys()
    for key, stamp in db.watched.items():
        if key in dynamic_keys:  # the old filing stamped it for a membership-driven source too
            assert stamp <= frozen.watched[key]
        else:
            assert stamp == frozen.watched[key], key


@settings(max_examples=80, deadline=None)
@given(STEPS)
def test_the_probe_index_answers_every_probe_as_the_two_indexes_did(steps):
    db, frozen = make_database(StreamDefinitionDatabase), make_database(TwoIndexDatabase)
    down: set[str] = set()
    dynamic_keys: set[tuple] = set()
    for action, argument in steps:
        assert step(db, action, argument, down) == step(frozen, action, argument, down)
        if action == "fail":
            down.add(argument)
        elif action == "join":
            down.discard(argument)
        elif action in ("publish", "retract"):
            description = DESCRIPTIONS[argument]
            if description.operands and description.operator in KINDS:
                dynamic_keys.add((description.peer_id, description.operator))
        assert_probes_agree(db, frozen, dynamic_keys)


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
