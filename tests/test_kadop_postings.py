"""Posting lists follow their documents: two defects reproduced at f3a816a.

* a republish under an existing ``doc_id`` left the old version's postings
  behind, and ``unpublish`` then withdrew only the new version's terms;
* ``unpublish`` emptied posting sets but never removed them, so every
  ``term:attr:Stream@StreamId=...`` key outlived its stream.

Every test of those two classes fails at the parent.  The last section
holds bare-id postings (a posting is its one doc id until its second
document) to a frozen copy of the set-only index.
"""

from hypothesis import given, settings, strategies as st

from repro.algebra.plan import ALERTER, PlanNode
from repro.dht import ChordRing, KadopIndex, chord
from repro.dht.kadop import _DOCS_KEY
from repro.monitor import StreamDefinitionDatabase
from repro.monitor.stream_db import StreamDescription, decode_description
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
    """Term key -> the doc ids its posting lists (a bare id until its second document)."""
    return {
        key: {value} if isinstance(value, str) else value
        for key, value in ring_keys(index).items() if key.startswith("term:")
    }


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
        index.publish({"X": record('<Filter spec="aaa"/>')})
        index.publish({"X": record('<Join spec="bbb"/>')})
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
        index.publish({"X": record('<Filter spec="aaa"/>')})
        index.publish({"Y": record('<Filter spec="aaa"/>')})
        index.publish({"X": record('<Join spec="bbb"/>')})
        postings = term_postings(index)
        assert postings["term:tag:Filter"] == {"Y"}
        assert postings["term:attr:Filter@spec=aaa"] == {"Y"}
        assert postings["term:tag:Stream"] == {"X", "Y"}

    def test_publish_stream_twice_with_different_operands(self):
        db = StreamDefinitionDatabase(make_index())
        baseline = ring_keys(db.index).keys()
        first = record('<Union spec=""/>', '<Operand OPeerId="a" OStreamId="s1"/>')
        second = record('<Union spec=""/>', '<Operand OPeerId="b" OStreamId="s2"/>')
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
        before = term_postings(index)
        assert index.fail_peer(victim) > 0
        assert term_postings(index) == before  # restored as they were, nothing resurrected
        assert all(term_postings(index).values())
        assert db.verify_index_coherence() == []
        assert all(db.retract(doc_id) for doc_id in doc_ids[30:])
        assert ring_keys(index).keys() == baseline
        assert db.verify_index_coherence() == []

    def test_restore_does_not_resurrect_an_empty_posting_set(self):
        index = make_index()
        index.publish({"X": record('<Union spec=""/>')})
        assert index._restore_keys(["term:tag:Nobody", "term:tag:Union"]) == 1
        assert "term:tag:Nobody" not in ring_keys(index)


# -- bare-id postings against a frozen set-only copy ---------------------------------------------


class SetPostings(KadopIndex):
    """The index as it was before a posting held a bare id: every posting a
    set from its first document on, and every reader taking a set."""

    def publish(self, entries):
        for doc_id, record in entries.items():
            self._publish_one(record, doc_id)

    def _publish_one(self, record, doc_id):
        filed = record.terms()
        keys = [f"doc:{doc_id}", _DOCS_KEY, *[f"term:{term}" for term in filed]]
        homes = self.ring._route(keys, None, None)
        homes[0].storage[keys[0]] = record
        previous = self.records.get(doc_id)
        self.records[doc_id] = record
        for key, home in zip(keys[1:], homes[1:]):
            try:
                home.storage[key].add(doc_id)
            except KeyError:
                home.storage[key] = {doc_id}
        if previous is not None:
            stale = previous.terms() - filed
            if stale:
                self._drop_postings([f"term:{term}" for term in stale], doc_id)
        self._query_cache.clear()

    def _drop_postings(self, keys, doc_id):
        for key, home in zip(keys, self.ring._route(keys, None, None)):
            try:
                postings = home.storage[key]
            except KeyError:
                continue
            postings.discard(doc_id)
            if not postings and key != _DOCS_KEY:
                del home.storage[key]

    def _restore_keys(self, lost):
        restored = {
            key: self.records[key[len("doc:"):]]
            for key in lost
            if key.startswith("doc:") and key[len("doc:"):] in self.records
        }
        if _DOCS_KEY in lost:
            restored[_DOCS_KEY] = set(self.records)
        lost_terms = {key[len("term:"):] for key in lost if key.startswith("term:")}
        if lost_terms:
            for doc_id, record in self.records.items():
                for term in record.terms() & lost_terms:
                    restored.setdefault(f"term:{term}", set()).add(doc_id)
        for key, home in zip(restored, self.ring._route(list(restored), None, None)):
            home.storage[key] = restored[key]
        return len(restored)

    def filed_terms(self):
        filed = {}
        for node in self.ring.nodes():
            for key, postings in node.storage.items():
                if key.startswith("term:"):
                    for doc_id in postings:
                        filed.setdefault(doc_id, set()).add(key[len("term:"):])
        return filed

    def lookup(self, terms):
        keys = [f"term:{term}" for term in terms]
        found = None
        for key, home in zip(keys, self.ring._route(keys, None, None)):
            postings = home.storage.get(key)
            if not postings:
                return []
            found = postings if found is None else found & postings
        return [self.records[doc_id] for doc_id in sorted(found)]

    def _postings(self, term):
        postings = self.ring.get(f"term:{term}")
        return set(postings) if isinstance(postings, set) else set()


def _listed(index: KadopIndex) -> tuple:
    """Per-node storage, each posting as the set of doc ids it lists, and the routing counts."""
    storage = {
        node.node_id: {key: {value} if isinstance(value, str) else value for key, value in node.storage.items()}
        for node in index.ring.nodes()
    }
    return storage, index.records, index.keys_restored, index.ring.lookup_count, index.ring.total_hops


#: a small vocabulary, so postings gain, share and lose documents
BARE_RECORDS = st.builds(
    StreamDescription,
    st.sampled_from(["p0", "p1"]),
    st.sampled_from(["s0", "s1", "s2"]),
    st.booleans(),
    st.sampled_from(["Filter", "Join", "outCOM"]),
    st.sampled_from(["a", "b"]),
    st.lists(st.tuples(st.sampled_from(["p0", "p1"]), st.sampled_from(["s0", "s1"])), max_size=2).map(tuple),
)

PROBES = (
    ["tag:Stream"], ["tag:Filter", "attr:Stream@PeerId=p0"], ["attr:Join@spec=a", "attr:Operand@OStreamId=s1"],
    ["attr:Stream@StreamId=s2"], ["tag:Operand", "attr:Operand@OPeerId=p1"],
)


@settings(max_examples=80, deadline=None)
@given(
    peers=st.integers(2, 8),
    script=st.lists(
        st.tuples(
            st.sampled_from(["publish", "publish", "publish", "unpublish", "join", "fail"]),
            st.integers(0, 5),
            BARE_RECORDS,
        ),
        max_size=40,
    ),
)
def test_bare_id_postings_list_what_set_postings_list(peers, script):
    pair = []
    for kind in (KadopIndex, SetPostings):
        pair.append(kind(make_index(peers).ring))
    bare, frozen = pair
    joined = peers
    for action, number, description in script:
        doc_id = f"d{number}"  # a publish under a known id is a republish
        for index in pair:
            if action == "publish":
                index.publish({doc_id: description})
            elif action == "unpublish":
                index.unpublish(doc_id)
            elif action == "join":
                index.join_peer(f"storage{joined}")
            else:
                members = index.ring.node_ids
                index.fail_peer(members[number % len(members)])
        joined += action == "join"
        assert _listed(bare) == _listed(frozen)
    assert bare.filed_terms() == frozen.filed_terms()
    assert bare.document_ids == frozen.document_ids
    for terms in PROBES:
        assert bare.lookup(terms) == frozen.lookup(terms)
    for query in ("/Stream[Operator/Filter]", "/Stream[@PeerId = 'p1'][Operands/Operand]"):
        assert bare.query(query) == frozen.query(query)
    assert StreamDefinitionDatabase(bare).verify_index_coherence() == []


def test_a_posting_is_a_bare_id_until_its_second_document():
    index = make_index()
    index.publish({"X": record('<Filter spec="aaa"/>')})
    storage = ring_keys(index)
    assert storage["term:attr:Filter@spec=aaa"] == "X"
    assert storage["__all_documents__"] == {"X"}  # the catalogue is always a set
    index.publish({"X": record('<Filter spec="aaa"/>')})  # a republish keeps it bare
    assert ring_keys(index)["term:attr:Filter@spec=aaa"] == "X"
    index.publish({"Y": record('<Filter spec="aaa"/>')})
    assert ring_keys(index)["term:attr:Filter@spec=aaa"] == {"X", "Y"}
    assert [doc_id for doc_id, _ in index.query("/Stream[Operator/Filter]")] == ["X", "Y"]
    assert index.unpublish("X") and index.unpublish("Y")
    assert "term:attr:Filter@spec=aaa" not in ring_keys(index)
