"""A description's KadoP terms are its shape's skeleton plus its id terms.

KadoP stores a description record and never walks the ``<Stream>`` document
it renders: ``StreamDescription.terms`` works the terms naming no peer,
stream or spec out once per ``(operator, is_channel, has operands)`` and adds
the spec and id terms per record.  The walk (``KadopIndex._terms_of_document``)
stays the oracle the postings are held to, here and in
``verify_index_coherence``; the term-lookup probes are held to the XPath
``find_*_oracle`` queries.
"""

import pytest

from repro.algebra.plan import ALERTER, DISTINCT, FILTER, GROUP, JOIN, PUBLISH, RESTRUCTURE, UNION, PlanNode
from repro.dht import ChordRing, KadopIndex
from repro.filtering import FilterSubscription, SimpleCondition
from repro.monitor import P2PMSystem, StreamDefinitionDatabase, stream_db
from repro.xmlmodel import to_xml
from repro.xmlmodel.tree import Element


def alerter(peer="a.com", kind="outCOM"):
    return PlanNode(ALERTER, {"alerter": kind, "peer": peer, "var": "c"}, placement=peer)


def publishing_nodes():
    """One node of every kind that produces a stream."""
    source = alerter()
    subscription = FilterSubscription("f", [SimpleCondition("callMethod", "=", "GetTemperature")])
    return {
        ALERTER: source,
        FILTER: PlanNode(FILTER, {"subscription": subscription, "var": "c"}, [source]),
        UNION: PlanNode(UNION, {}, [source, alerter("b.com")]),
        JOIN: PlanNode(JOIN, {"left_var": "a", "right_var": "b", "predicate": [("a.x", "b.x")]}, [source, source]),
        RESTRUCTURE: PlanNode(RESTRUCTURE, {}, [source]),
        DISTINCT: PlanNode(DISTINCT, {"criterion": "structural"}, [source]),
        GROUP: PlanNode(GROUP, {"key": "callee", "every": 3}, [source]),
        PUBLISH: PlanNode(PUBLISH, {"mode": "channel", "target": "out"}, [source]),
    }


OPERANDS = {
    "none": [],
    "one": [("a.com", "outCOM")],
    "duplicate": [("a.com", "outCOM"), ("a.com", "outCOM")],
    "two": [("b.com", "s2"), ("a.com", "s1")],
}


def assert_filed_under_the_walk(db: StreamDefinitionDatabase) -> None:
    index = db.index
    filed = index.filed_terms()
    for doc_id in index.document_ids:
        assert filed[doc_id] == KadopIndex._terms_of_document(index.document(doc_id)), doc_id
    assert db.verify_index_coherence() == []


def assert_lookups_equal_the_oracle(db: StreamDefinitionDatabase) -> None:
    """Every description's own probe -- by ``(peer, kind)`` without operands,
    by ``(operator, spec, operands)`` with -- answers as the XPath oracle
    does; a Publisher output answers none."""
    for description in db.all_stream_descriptions():
        operator, spec, operands, peer = description.operator, description.spec, list(description.operands), description.peer_id
        if operands:
            found = db.find_operator_streams(operator, spec, operands)
            oracle = db.find_operator_streams_oracle(operator, spec, operands)
        else:
            found, oracle = db.find_alerter_streams(peer, operator), db.find_alerter_streams_oracle(peer, operator)
        assert found == ([] if operator == "Publisher" else oracle)
        assert db.find_replicas(peer, description.stream_id) == db.find_replicas_oracle(peer, description.stream_id)


@pytest.mark.parametrize("is_channel", [True, False])
@pytest.mark.parametrize("operands", OPERANDS, ids=str)
@pytest.mark.parametrize("kind", list(publishing_nodes()))
def test_skeleton_plus_id_terms_is_the_walk(kind, operands, is_channel):
    db = StreamDefinitionDatabase()
    description = db.describe_node(publishing_nodes()[kind], "m.com", "s", OPERANDS[operands], is_channel)
    assert description.terms() == KadopIndex._terms_of_document(description.to_element())
    doc_id = db.publish_stream(description)
    # KadoP keeps the record itself
    assert db.index.records[doc_id] is description
    assert db.index.filed_terms()[doc_id] == KadopIndex._terms_of_document(db.index.document(doc_id))
    assert db.index.document(doc_id) == description.to_element()
    assert_filed_under_the_walk(db)
    assert_lookups_equal_the_oracle(db)
    assert db.retract(doc_id) and db.index.document_ids == []


def test_one_skeleton_per_shape_across_many_publications(monkeypatch):
    monkeypatch.setattr(stream_db, "_SKELETONS", {})
    db = StreamDefinitionDatabase()
    shapes = set()
    for kind, node in publishing_nodes().items():
        for name, operands in OPERANDS.items():
            for is_channel in (True, False):
                for peer in ("m.com", "n.com"):
                    stream = f"{kind}-{name}-{is_channel}"
                    description = db.describe_node(node, peer, stream, operands, is_channel)
                    db.publish_stream(description)
                    shapes.add((description.operator, is_channel, bool(operands)))
    db.publish_replica("m.com", "alerter-one-True", "cache.com", "copy")
    assert set(stream_db._SKELETONS) == shapes
    assert_filed_under_the_walk(db)
    assert_lookups_equal_the_oracle(db)


def test_a_republish_with_changed_operands_refiles_its_terms():
    db = StreamDefinitionDatabase()
    node = publishing_nodes()[UNION]
    doc_id = db.publish_node(node, "m.com", "u", [("a.com", "s1"), ("b.com", "s2")])
    assert db.publish_node(node, "m.com", "u", [("c.com", "s3")]) == doc_id
    terms = db.index.filed_terms()[doc_id]
    assert "attr:Operand@OPeerId=c.com" in terms and "attr:Operand@OPeerId=a.com" not in terms
    assert db.index._postings("attr:Operand@OPeerId=a.com") == set()
    assert db.index._postings("attr:Operand@OPeerId=c.com") == {doc_id}
    assert db.find_operator_streams("Union", stream_db.operator_spec(node), [("a.com", "s1"), ("b.com", "s2")]) == []
    assert_filed_under_the_walk(db)
    assert_lookups_equal_the_oracle(db)
    # and back to no operands at all: the Operand tag goes too
    db.publish_node(node, "m.com", "u", [])
    assert db.index._postings("tag:Operand") == set()
    assert_filed_under_the_walk(db)
    assert_lookups_equal_the_oracle(db)


def test_a_skeleton_that_drifts_from_its_documents_is_reported(monkeypatch):
    monkeypatch.setattr(stream_db, "_SKELETONS", {})
    db = StreamDefinitionDatabase()
    node = publishing_nodes()[FILTER]
    db.publish_node(node, "a.com", "f1", [("a.com", "outCOM")])
    assert db.verify_index_coherence() == []
    (shape, skeleton), = stream_db._SKELETONS.items()
    stream_db._SKELETONS[shape] = skeleton - {"tag:Stats"} | {"tag:Statistics"}
    drifted = db.publish_node(node, "a.com", "f2", [("a.com", "outCOM")])
    assert db.verify_index_coherence() == [
        f"terms: 1 documents filed under terms their walk does not find, first ['{drifted}']"
    ]
    # the index answers from the drifted terms: what the check is there to catch
    assert db.index.query("/Stream[Stats]") == [("stream:f1@a.com", db.index.document("stream:f1@a.com"))]


def test_documents_routed_over_rpc_are_stored_as_records_and_filed_under_the_walk():
    system = P2PMSystem(seed=3, reliable_control=True)
    arrived = {}
    for peer_id in ("s0", "s1", "m1"):
        methods = system.add_peer(peer_id).rpc._methods
        handler = methods["kadop.publish"]

        def recording(params, source, _handler=handler):
            assert params.tag == "publish"
            arrived[params.attrib["docId"]] = params.children[0]
            return _handler(params, source)

        methods["kadop.publish"] = recording
    texts = [
        'for $c in outCOM(<p>s0</p>) where $c.callMethod = "a" return $c;',
        'for $c in outCOM(<p>s0</p> <p>s1</p>) where $c.callMethod = "b" return $c by publish as channel "X";',
    ]
    handles = [system.peer("m1").subscribe(text, sub_id=f"q{n}") for n, text in enumerate(texts)]
    system.run()
    assert len(arrived) >= 5
    for doc_id, document in arrived.items():
        # the index keeps the record decoded from the envelope's child, which renders it
        assert type(system.kadop.records[doc_id]) is not Element
        assert to_xml(system.kadop.document(doc_id)) == to_xml(document)
    assert_filed_under_the_walk(system.stream_db)
    assert_lookups_equal_the_oracle(system.stream_db)
    for handle in handles:
        handle.cancel()
    system.run()
    assert system.kadop.document_ids == [] and system.stream_db.verify_index_coherence() == []


def _eight_node_database() -> StreamDefinitionDatabase:
    ring = ChordRing()
    for i in range(8):
        ring.join(f"storage{i}")
    db = StreamDefinitionDatabase(KadopIndex(ring))
    source = alerter()
    db.publish_node(source, "a.com", "outCOM", [])
    db.publish_node(publishing_nodes()[FILTER], "a.com", "f1", [("a.com", "outCOM")])
    db.publish_replica("a.com", "f1", "cache.com", "copy")
    assert db.verify_index_coherence() == []
    return db


def test_a_document_lost_from_its_home_is_reported():
    db = _eight_node_database()
    node = publishing_nodes()[FILTER]
    doc_id = "stream:f1@a.com"
    key = f"doc:{doc_id}"
    db.index.ring.storage_for(key).pop(key)
    # the probe still answers from the mirror: only the check sees the loss
    found = db.find_operator_streams("Filter", stream_db.operator_spec(node), [("a.com", "outCOM")])
    assert [record.stream_id for record in found] == ["f1"]
    assert db.verify_index_coherence() == [
        f"documents: 1 catalogued documents the ring does not return, first ['{doc_id}']"
    ]


def test_a_posting_naming_an_unpublished_document_is_reported():
    db = _eight_node_database()
    key = "term:tag:Stream"
    db.index.ring.storage_for(key)[key].add("ghost")
    assert db.verify_index_coherence() == [
        "catalogue: 1 doc ids missing that the others list, first ['ghost']",
        "records: 1 doc ids missing that the others list, first ['ghost']",
    ]


def test_a_catalogued_document_missing_from_the_mirror_is_reported():
    db = _eight_node_database()
    del db.index.records["stream:outCOM@a.com"]
    assert db.verify_index_coherence() == [
        "records: 1 doc ids missing that the others list, first ['stream:outCOM@a.com']"
    ]
