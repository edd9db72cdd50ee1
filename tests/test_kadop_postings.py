"""Posting lists follow their documents: two defects reproduced at f3a816a.

* a republish under an existing ``doc_id`` left the old version's postings
  behind, and ``unpublish`` then withdrew only the new version's terms;
* ``unpublish`` emptied posting sets but never removed them, so every
  ``term:attr:Stream@StreamId=...`` key outlived its stream.

Every test in this file fails at the parent.
"""

from repro.algebra.plan import ALERTER, PlanNode
from repro.dht import ChordRing, KadopIndex, chord
from repro.monitor import StreamDefinitionDatabase
from repro.monitor.stream_db import decode_description
from repro.xmlmodel import parse_xml


def make_index(peers: int = 8) -> KadopIndex:
    ring = ChordRing()
    for i in range(peers):
        ring.join(f"storage{i}")
    return KadopIndex(ring)


def ring_keys(index: KadopIndex) -> dict[str, object]:
    return {
        key: value for node in index.ring.nodes() for key, value in node.storage.items()
    }


def term_postings(index: KadopIndex) -> dict[str, set[str]]:
    return {key: value for key, value in ring_keys(index).items() if key.startswith("term:")}


def stream(operator_xml: str, operands: str = "") -> str:
    return (
        '<Stream PeerId="p" StreamId="s" isAChannel="true">'
        f"<Operator>{operator_xml}</Operator><Operands>{operands}</Operands></Stream>"
    )


def record(operator_xml: str, operands: str = ""):
    return decode_description(parse_xml(stream(operator_xml, operands)))


def alerter_node(peer: str) -> PlanNode:
    return PlanNode(ALERTER, {"alerter": "outCOM", "peer": peer, "var": "c"}, placement=peer)


class TestRepublish:
    def test_republish_withdraws_the_terms_the_new_version_lost(self):
        index = make_index()
        baseline = ring_keys(index).keys()
        index.publish(record('<Filter spec="aaa"/>'), "X")
        index.publish(record('<Join spec="bbb"/>'), "X")
        postings = term_postings(index)
        assert "term:tag:Filter" not in postings
        assert "term:attr:Filter@spec=aaa" not in postings
        assert postings["term:tag:Join"] == {"X"}
        assert index.query("/Stream[Operator/Filter]") == []
        assert [doc_id for doc_id, _ in index.query("/Stream[Operator/Join]")] == ["X"]
        assert index.unpublish("X")
        assert ring_keys(index).keys() == baseline

    def test_republish_keeps_postings_other_documents_still_need(self):
        index = make_index()
        index.publish(record('<Filter spec="aaa"/>'), "X")
        index.publish(record('<Filter spec="aaa"/>'), "Y")
        index.publish(record('<Join spec="bbb"/>'), "X")
        postings = term_postings(index)
        assert postings["term:tag:Filter"] == {"Y"}
        assert postings["term:attr:Filter@spec=aaa"] == {"Y"}
        assert postings["term:tag:Stream"] == {"X", "Y"}

    def test_publish_stream_twice_with_different_operands(self):
        db = StreamDefinitionDatabase(make_index())
        baseline = ring_keys(db.index).keys()
        first = record("<Union/>", '<Operand OPeerId="a" OStreamId="s1"/>')
        second = record("<Union/>", '<Operand OPeerId="b" OStreamId="s2"/>')
        doc_id = db.publish_stream(first)
        assert db.publish_stream(second) == doc_id
        postings = term_postings(db.index)
        assert "term:attr:Operand@OPeerId=a" not in postings
        assert postings["term:attr:Operand@OPeerId=b"] == {doc_id}
        assert db.find_operator_streams_oracle("Union", None, [("a", "s1")]) == []
        assert len(db.find_operator_streams_oracle("Union", None, [("b", "s2")])) == 1
        assert db.verify_index_coherence() == []
        assert db.retract(doc_id)
        assert ring_keys(db.index).keys() == baseline


class TestEmptyPostingKeys:
    def test_ring_returns_to_its_baseline_after_publish_all_retract_all(self):
        db = StreamDefinitionDatabase(make_index())
        baseline = ring_keys(db.index).keys()
        assert len(baseline) == 1  # the catalogue
        doc_ids = [
            db.publish_node(alerter_node(f"peer{i % 10}"), f"peer{i % 10}", f"s{i}", [])
            for i in range(1000)
        ]
        assert len(ring_keys(db.index)) > 2000
        assert db.verify_index_coherence() == []
        assert all(db.retract(doc_id) for doc_id in doc_ids)
        assert ring_keys(db.index).keys() == baseline
        assert db.verify_index_coherence() == []

    def test_the_position_memo_stays_within_its_bound(self, monkeypatch):
        def publish_all_retract_all() -> ChordRing:
            db = StreamDefinitionDatabase(make_index())
            doc_ids = [
                db.publish_node(alerter_node(f"peer{i % 10}"), f"peer{i % 10}", f"s{i}", [])
                for i in range(300)
            ]
            assert all(db.retract(doc_id) for doc_id in doc_ids)
            assert len(ring_keys(db.index)) == 1
            return db.index.ring

        ring = publish_all_retract_all()
        assert 600 < len(ring._key_positions) <= chord.POSITION_MEMO_LIMIT
        monkeypatch.setattr(chord, "POSITION_MEMO_LIMIT", 64)
        cleared = publish_all_retract_all()
        assert len(cleared._key_positions) <= 64
        # clearing the memo re-hashes; it routes nothing differently
        assert (cleared.lookup_count, cleared.total_hops) == (ring.lookup_count, ring.total_hops)

    def test_the_same_with_a_peer_failing_in_the_middle(self):
        db = StreamDefinitionDatabase(make_index())
        index = db.index
        baseline = ring_keys(index).keys()
        doc_ids = [
            db.publish_node(alerter_node(f"peer{i % 5}"), f"peer{i % 5}", f"s{i}", [])
            for i in range(60)
        ]
        assert all(db.retract(doc_id) for doc_id in doc_ids[:30])
        victim = max(index.ring.nodes(), key=lambda node: len(node.storage)).node_id
        before = {key: value for key, value in ring_keys(index).items() if key.startswith("term:")}
        assert index.fail_peer(victim) > 0
        assert term_postings(index) == before  # restored as they were, nothing resurrected
        assert all(term_postings(index).values())
        assert db.verify_index_coherence() == []
        assert all(db.retract(doc_id) for doc_id in doc_ids[30:])
        assert ring_keys(index).keys() == baseline
        assert db.verify_index_coherence() == []

    def test_restore_does_not_resurrect_an_empty_posting_set(self):
        index = make_index()
        index.publish(record("<Union/>"), "X")
        assert index._restore_keys(["term:tag:Nobody", "term:tag:Union"]) == 1
        assert "term:tag:Nobody" not in ring_keys(index)
