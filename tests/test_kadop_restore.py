"""Failure-time re-replication against a frozen copy of the per-term rebuild.

``KadopIndex._restore_keys`` used to rebuild each lost ``term:`` key's
postings by scanning every document's term set, one ring ``put`` per
restored key, so a failure cost lost terms x documents.  It now
builds the lost terms' postings in one pass over the documents and restores
the keys in one routed batch.  On random publish / unpublish / republish /
join / fail scripts the two leave the same ring storage, the same
``keys_restored`` and the same lookup and hop counts.
"""

from hypothesis import given, settings, strategies as st

from repro.dht import ChordRing, KadopIndex
from repro.dht.kadop import _DOCS_KEY
from repro.xmlmodel import parse_xml


class PerTermRestore(KadopIndex):
    """The index with ``_restore_keys`` as it was: one scan of every
    document's terms per lost term key."""

    def _restore_keys(self, lost: list[str]) -> int:
        restored = 0
        for key in lost:
            if key == _DOCS_KEY:
                self.ring.put(_DOCS_KEY, set(self._doc_replicas))
                restored += 1
            elif key.startswith("doc:"):
                doc_id = key[len("doc:"):]
                document = self._doc_replicas.get(doc_id)
                if document is not None:
                    self.ring.put(key, document)
                    restored += 1
            elif key.startswith("term:"):
                term = key[len("term:"):]
                postings = {
                    doc_id for doc_id, terms in self._doc_terms.items() if term in terms
                }
                if postings:  # a term no document has any more stays gone
                    self.ring.put(key, postings)
                    restored += 1
        return restored


def _document(peer: int, stream: int, operator: str, spec: int):
    return parse_xml(
        f'<Stream PeerId="p{peer}" StreamId="s{stream}">'
        f'<Operator><{operator} spec="{spec}"/></Operator><Operands/></Stream>'
    )


def _indexes(peers: int) -> tuple[KadopIndex, KadopIndex]:
    pair = []
    for kind in (KadopIndex, PerTermRestore):
        ring = ChordRing()
        for i in range(peers):
            ring.join(f"node{i}")
        pair.append(kind(ring))
    return pair[0], pair[1]


def _state(index: KadopIndex) -> tuple:
    ring = index.ring
    storage = {node.node_id: node.storage for node in ring.nodes()}
    return storage, index.keys_restored, ring.lookup_count, ring.total_hops


DOCUMENTS = st.builds(
    _document,
    st.integers(0, 3),
    st.integers(0, 5),
    st.sampled_from(["Filter", "Join", "Union"]),
    st.integers(0, 2),
)


@settings(max_examples=60, deadline=None)
@given(
    peers=st.integers(2, 10),
    script=st.lists(
        st.tuples(
            st.sampled_from(["publish", "publish", "unpublish", "join", "fail", "fail"]),
            st.integers(0, 7),
            DOCUMENTS,
            st.booleans(),
        ),
        max_size=40,
    ),
)
def test_restores_what_the_per_term_rebuild_restored(peers, script):
    batched, frozen = _indexes(peers)
    joined = peers
    for action, number, document, given_terms in script:
        doc_id = f"d{number}"  # a publish under a known id is a republish
        for index in (batched, frozen):
            if action == "publish":
                terms = frozenset(KadopIndex._terms_of_document(document)) if given_terms else None
                index.publish(document, doc_id, terms)
            elif action == "unpublish":
                index.unpublish(doc_id)
            elif action == "join":
                index.join_peer(f"node{joined}")
            else:
                members = index.ring.node_ids
                fullest = max(index.ring.nodes(), key=lambda node: len(node.storage)).node_id
                index.fail_peer(fullest if given_terms else members[number % len(members)])
        joined += action == "join"
        assert _state(batched) == _state(frozen)
    assert batched.document_ids == frozen.document_ids


def test_a_failure_restores_each_lost_key_with_one_lookup():
    batched, frozen = _indexes(6)
    for i in range(120):
        document = _document(i % 4, i, ("Filter", "Join", "Union")[i % 3], i % 7)
        for index in (batched, frozen):
            index.publish(document, f"d{i}")
    for i in range(0, 120, 3):
        for index in (batched, frozen):
            index.unpublish(f"d{i}")
    for index in (batched, frozen):
        victim = max(index.ring.nodes(), key=lambda node: len(node.storage))
        lost = len(victim.storage)
        before = index.ring.lookup_count
        restored = index.fail_peer(victim.node_id)
        assert 0 < restored <= lost
        assert index.ring.lookup_count - before == restored
    assert _state(batched) == _state(frozen)
