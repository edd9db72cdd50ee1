"""Tests for the KadoP-style XML index (Stream Definition Database substrate)."""

import pytest

from repro.dht import ChordRing, KadopIndex
from repro.dht.kadop import _DOCS_KEY, MembershipEvent, _terms_of_query
from repro.monitor.stream_db import StreamDescription, decode_description
from repro.xmlmodel import XPath, parse_xml


def stream_description(peer: str, stream: str, operator_xml: str, operands: str = "") -> StreamDescription:
    """The record of the ``<Stream>`` document these arguments spell."""
    return decode_description(parse_xml(
        f'<Stream PeerId="{peer}" StreamId="{stream}" isAChannel="true">'
        f"<Operator>{operator_xml}</Operator>"
        f"<Operands>{operands}</Operands>"
        f"</Stream>"
    ))


def ring_storage(index: KadopIndex) -> dict[str, dict[str, object]]:
    """Every node's storage, its posting sets copied."""
    return {
        node.node_id: {key: set(value) if isinstance(value, set) else value for key, value in node.storage.items()}
        for node in index.ring.nodes()
    }


@pytest.fixture
def index() -> KadopIndex:
    ring = ChordRing()
    for i in range(8):
        ring.join(f"storage{i}")
    idx = KadopIndex(ring)
    idx.publish({"d1": stream_description("p1", "s1", '<inCom spec=""/>')})
    idx.publish({"d2": stream_description("p2", "s2", '<outCom spec=""/>')})
    idx.publish({"d3": stream_description("p1", "s3", '<Filter spec=""/>', '<Operand OPeerId="p1" OStreamId="s1"/>')})
    return idx


class TestPublication:
    def test_document_lookup_missing(self, index):
        assert index.document("ghost") is None

    def test_published_record_is_stored_uncopied(self):
        index = KadopIndex()
        source = stream_description("p", "s", '<inCom spec=""/>')
        index.publish({"d": source})
        # the published record belongs to the index: ring entry and mirror
        # are that object, and every read renders a fresh document of it
        assert index.ring.get("doc:d") is source is index.records["d"]
        assert index.document("d") == source.to_element() and index.document("d") is not index.document("d")
        assert index.query("/Stream[@PeerId = 'p']") == [("d", source.to_element())]
        # a new version is a new publication under the same id
        index.publish({"d": stream_description("q", "s", '<inCom spec=""/>')})
        assert index.document("d").attrib["PeerId"] == "q"
        assert index.query("/Stream[@PeerId = 'p']") == []

    def test_an_element_is_refused_before_anything_is_routed_or_stored(self, index):
        storage = ring_storage(index)
        records, catalogue = dict(index.records), set(index.ring.get(_DOCS_KEY))
        lookups = index.ring.lookup_count
        element = parse_xml(
            '<Stream PeerId="p1" StreamId="raw" isAChannel="true">'
            '<Operator><inCom spec="x"/></Operator><Operands/></Stream>'
        )
        with pytest.raises(AttributeError):
            index.publish({"raw": element})
        assert index.ring.lookup_count == lookups
        assert ring_storage(index) == storage
        assert index.records == records and index.ring.get(_DOCS_KEY) == catalogue
        assert index.lookup(["tag:inCom", "attr:Stream@PeerId=p1"]) == [records["d1"]]

    def test_unpublish(self, index):
        assert index.unpublish("d1")
        assert index.document("d1") is None
        assert not index.unpublish("d1")
        assert index.query("/Stream[Operator/inCom]") == []


class TestQueries:
    def test_alerter_discovery_query(self, index):
        # "find streams produced by alerters on p1"
        results = index.query("/Stream[@PeerId = 'p1'][Operator/inCom]")
        assert [doc_id for doc_id, _ in results] == ["d1"]

    def test_filter_over_operand_query(self, index):
        query = (
            "/Stream[Operator/Filter]"
            "[Operands/Operand[@OPeerId='p1'][@OStreamId='s1']]"
        )
        results = index.query(query)
        assert [doc_id for doc_id, _ in results] == ["d3"]

    def test_no_match(self, index):
        assert index.query("/Stream[Operator/Join]") == []

    def test_query_accepts_compiled_xpath(self, index):
        results = index.query(XPath.compile("/Stream[@PeerId='p2']"))
        assert [doc_id for doc_id, _ in results] == ["d2"]

    def test_wildcard_only_query_scans_catalogue(self, index):
        results = index.query("//*[@StreamId='s2']")
        assert [doc_id for doc_id, _ in results] == ["d2"]

    def test_query_lookup_cost_reports_hops(self, index):
        cost = index.query_lookup_cost("/Stream[@PeerId = 'p1'][Operator/inCom]")
        assert cost["results"] == 1
        assert cost["lookups"] > 0
        assert cost["hops_per_lookup"] >= 0.0

    def test_results_sorted_by_doc_id(self, index):
        results = index.query("/Stream[@PeerId='p1']")
        assert [doc_id for doc_id, _ in results] == ["d1", "d3"]


class TestTermExtraction:
    def test_tags_and_attribute_terms(self):
        terms = _terms_of_query(XPath.compile("/Stream[@PeerId = 'p1'][Operator/inCom]"))
        assert "tag:Stream" in terms
        assert "attr:Stream@PeerId=p1" in terms
        assert "tag:Operator" in terms
        assert "tag:inCom" in terms

    def test_or_predicates_are_not_required_terms(self):
        terms = _terms_of_query(XPath.compile("/Stream[@a='1' or @b='2']"))
        assert "attr:Stream@a=1" not in terms
        assert "tag:Stream" in terms

    def test_wildcard_contributes_no_tag(self):
        terms = _terms_of_query(XPath.compile("//*[@x='1']"))
        assert terms == set()


class TestMembership:
    def test_join_leave_events(self):
        index = KadopIndex()
        events: list[MembershipEvent] = []
        index.subscribe_membership(events.append)
        index.join_peer("new.com")
        index.leave_peer("new.com")
        assert [e.kind for e in events] == ["join", "leave"]
        assert events[0].to_element().tag == "p-join"
        assert events[1].to_element().tag == "p-leave"
        assert events[0].to_element().text == "new.com"

    def test_documents_survive_membership_churn(self, index):
        index.join_peer("extra1")
        index.join_peer("extra2")
        index.leave_peer("storage3")
        results = index.query("/Stream[@PeerId = 'p1'][Operator/inCom]")
        assert [doc_id for doc_id, _ in results] == ["d1"]
