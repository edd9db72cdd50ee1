"""The Stream Definition Database (Section 5), replicated into the KadoP index.

Every stream produced in the system is described by an XML document::

    <Stream PeerId="..." StreamId="..." isAChannel="...">
      <Operator>...</Operator><Operands>...</Operands>
      <Stats>...</Stats>
    </Stream>

Replicas (peers re-publishing a channel they subscribe to) are described by
``<InChannel>`` documents.  Descriptions are always expressed over the
*original* streams, never over replicas, which is what makes the Reuse
algorithm a sequence of simple tree-pattern queries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.algebra.plan import (
    ALERTER,
    DISTINCT,
    EXISTING,
    FILTER,
    GROUP,
    JOIN,
    PUBLISH,
    RESTRUCTURE,
    UNION,
    PlanNode,
    signature_detail,
)
from repro.dht.kadop import KadopIndex
from repro.xmlmodel.tree import Element

#: Operator element names used in stream descriptions, by plan-node kind.
OPERATOR_NAMES = {
    ALERTER: None,  # the alerter kind itself is used (inCOM, outCOM, rss, ...)
    FILTER: "Filter",
    UNION: "Union",
    JOIN: "Join",
    RESTRUCTURE: "Restructure",
    DISTINCT: "DuplicateRemoval",
    GROUP: "Group",
    PUBLISH: "Publisher",
    EXISTING: None,
}


def operator_spec(node: PlanNode) -> str:
    """A short, stable fingerprint of a node's own parameters.

    Two nodes with the same kind, the same spec and operand-equal children
    compute the same stream; the spec is stored on the operator element so
    that reuse queries can require it.  The spec is memoised per node (and
    carried by ``PlanNode.copy``): the reuse pass computes it for every
    probed node, and ``params`` never mutates after construction.
    """
    spec = node._spec
    if spec is None:
        signature = f"{node.kind}[{signature_detail(node)}]()"
        spec = hashlib.sha1(signature.encode("utf-8")).hexdigest()[:12]
        node._spec = spec
    return spec


@dataclass(frozen=True, slots=True)
class StreamDescription:
    """Decoded view of one ``<Stream>`` document."""

    peer_id: str
    stream_id: str
    is_channel: bool
    operator: str
    spec: str
    operands: tuple[tuple[str, str], ...]

    @property
    def qualified_id(self) -> str:
        return f"{self.stream_id}@{self.peer_id}"


class StreamDefinitionDatabase:
    """Publish and query stream descriptions; KadoP is the write-behind replica.

    The primary is three in-memory indexes -- (operator, operand-set),
    (peer, alerter kind), the replica map -- filed by a publication once it
    returned and withdrawn before a retraction is routed.  Every Section-5
    probe reads them, never KadoP; descriptions written to KadoP directly are
    invisible to reuse.  The XPath queries stay as ``find_*_oracle`` and
    :meth:`verify_index_coherence`, the proof that the replica equals them.
    """

    def __init__(self, index: KadopIndex | None = None) -> None:
        self.index = index if index is not None else KadopIndex()
        #: optional control-plane router (reliable mode): publications and
        #: retractions travel as RPCs to the document's DHT home peer instead
        #: of mutating the index in place -- must expose
        #: ``publish_document(description, doc_id)`` and
        #: ``retract_document(doc_id) -> bool``
        self.router = None
        self.streams_published = 0
        self.replicas_published = 0
        self.descriptions_retracted = 0
        #: decoded ``<Stream>`` documents by doc id (the decode cache)
        self._descriptions: dict[str, StreamDescription] = {}
        #: (operator name, sorted operand pairs) -> doc ids
        self._by_operator: dict[tuple[str, tuple[tuple[str, str], ...]], set[str]] = {}
        #: (peer id, operator/alerter element name) -> doc ids
        self._by_alerter: dict[tuple[str, str], set[str]] = {}
        #: (original peer, original stream) -> {doc id: (replica peer, replica stream)}
        self._replica_map: dict[tuple[str, str], dict[str, tuple[str, str]]] = {}
        #: replica doc id -> its original (peer, stream) key, so a replica can
        #: be deindexed even when its document has since been overwritten
        self._replica_keys: dict[str, tuple[str, str]] = {}
        #: bumped whenever a description that can influence reuse *matching*
        #: changes: any ``<Stream>`` except Publisher outputs (a PUBLISH node
        #: is never matched) and excluding ``<InChannel>`` replicas (they only
        #: affect provider choice, which is re-ranked on every probe).  The
        #: reuse signature cache keys its entries on this counter.
        self.reuse_version = 0

    # -- publication ---------------------------------------------------------------

    def describe_node(
        self,
        node: PlanNode,
        peer_id: str,
        stream_id: str,
        operand_streams: list[tuple[str, str]],
        is_channel: bool = True,
        avg_volume: float = 0.0,
    ) -> Element:
        """Build the ``<Stream>`` description of a deployed plan node (every
        attribute is already a ``str``: the trusted constructor suffices)."""
        operator_name = OPERATOR_NAMES.get(node.kind)
        if node.kind == ALERTER:
            operator_name = node.params.get("alerter", "alerter")
        if operator_name is None:
            raise ValueError(f"plan node of kind {node.kind!r} does not produce a stream")
        new = Element.fast_new
        operator = new("Operator", {}, [new(operator_name, {"spec": operator_spec(node)}, [])])
        operands = new("Operands", {}, [
            new("Operand", {"OPeerId": op_peer, "OStreamId": op_stream}, [])
            for op_peer, op_stream in operand_streams
        ])
        stats = new("Stats", {"avgVolume": f"{avg_volume:.1f}"}, [])
        attrib = {"PeerId": peer_id, "StreamId": stream_id, "isAChannel": "true" if is_channel else "false"}
        return new("Stream", attrib, [operator, operands, stats])

    def publish_stream(self, description: Element) -> str:
        """Store a ``<Stream>`` description; returns its document id."""
        if description.tag != "Stream":
            raise ValueError("expected a <Stream> description")
        doc_id = f"stream:{description.attrib['StreamId']}@{description.attrib['PeerId']}"
        self._publish(description, doc_id)
        self.streams_published += 1  # counted once it landed: a router may raise
        return doc_id

    def publish_node(
        self,
        node: PlanNode,
        peer_id: str,
        stream_id: str,
        operand_streams: list[tuple[str, str]],
        is_channel: bool = True,
    ) -> str:
        """Describe and publish a deployed node's output stream."""
        description = self.describe_node(node, peer_id, stream_id, operand_streams, is_channel)
        return self.publish_stream(description)

    def publish_replica(
        self, peer_id: str, stream_id: str, replica_peer_id: str, replica_stream_id: str
    ) -> str:
        """Declare that ``replica_peer_id`` can also provide ``stream_id@peer_id``."""
        description = Element.fast_new(
            "InChannel",
            {
                "PeerId": peer_id,
                "StreamId": stream_id,
                "ReplicaPeerId": replica_peer_id,
                "ReplicaStreamId": replica_stream_id,
            },
            [],
        )
        doc_id = f"replica:{replica_stream_id}@{replica_peer_id}"
        self._publish(description, doc_id)
        self.replicas_published += 1
        return doc_id

    def _publish(self, description: Element, doc_id: str) -> None:
        """Write ``description`` to KadoP, then index it; a routed write that
        raised may have landed, so it is withdrawn and nothing is indexed."""
        if self.router is None:
            self.index.publish(description, doc_id)
        else:
            try:
                self.router.publish_document(description, doc_id)
            except Exception:
                self.retract(doc_id)
                raise
        self._index_document(doc_id, description)

    # -- retraction ---------------------------------------------------------------

    def retract(self, doc_id: str) -> bool:
        """Withdraw a published description (stream or replica) by document id.

        Cancellation uses this so that the Reuse algorithm stops matching
        streams that are no longer produced: the indexes forget it first,
        then the withdrawal is routed.  Returns False when KadoP did not
        hold it.
        """
        self._deindex_document(doc_id)
        if self.router is not None:
            removed = self.router.retract_document(doc_id)
        else:
            removed = self.index.unpublish(doc_id)
        if removed:
            self.descriptions_retracted += 1
        return removed

    # -- queries (the ones of Section 5) -------------------------------------------------

    def find_alerter_streams(self, peer_id: str, alerter_kind: str) -> list[StreamDescription]:
        """``/Stream[@PeerId = $p1][Operator/inCom]`` and friends."""
        doc_ids = self._by_alerter.get((peer_id, alerter_kind), ())
        return [self._descriptions[doc_id] for doc_id in sorted(doc_ids)]

    def find_operator_streams(
        self,
        operator: str,
        spec: str | None,
        operands: list[tuple[str, str]],
    ) -> list[StreamDescription]:
        """Find streams computing ``operator`` over exactly the given operands."""
        doc_ids = self._by_operator.get((operator, tuple(sorted(operands))), ())
        found = [self._descriptions[doc_id] for doc_id in sorted(doc_ids)]
        if spec:
            found = [description for description in found if description.spec == spec]
        return found

    def find_replicas(self, peer_id: str, stream_id: str) -> list[tuple[str, str]]:
        """Replica providers of ``stream_id@peer_id`` as (peer, stream) pairs."""
        providers = self._replica_map.get((peer_id, stream_id), {})
        return [providers[doc_id] for doc_id in sorted(providers)]

    def all_stream_descriptions(self) -> list[StreamDescription]:
        return [self._descriptions[doc_id] for doc_id in sorted(self._descriptions)]

    # -- the XPath query path over the replica, retained as the differential oracle -----

    def find_alerter_streams_oracle(
        self, peer_id: str, alerter_kind: str
    ) -> list[StreamDescription]:
        query = f"/Stream[@PeerId = '{peer_id}'][Operator/{alerter_kind}]"
        return [self._decode(doc) for _, doc in self.index.query(query)]

    def find_operator_streams_oracle(
        self,
        operator: str,
        spec: str | None,
        operands: list[tuple[str, str]],
    ) -> list[StreamDescription]:
        spec_predicate = f"[@spec = '{spec}']" if spec else ""
        predicates = "".join(
            f"[Operands/Operand[@OPeerId='{peer}'][@OStreamId='{stream}']]"
            for peer, stream in operands
        )
        query = f"/Stream[Operator/{operator}{spec_predicate}]{predicates}"
        candidates = [self._decode(doc) for _, doc in self.index.query(query)]
        # exact operand-set match: the query guarantees inclusion, not equality
        wanted = sorted(operands)
        return [c for c in candidates if sorted(c.operands) == wanted]

    def find_replicas_oracle(self, peer_id: str, stream_id: str) -> list[tuple[str, str]]:
        query = f"/InChannel[@PeerId = '{peer_id}'][@StreamId = '{stream_id}']"
        return [
            (doc.attrib["ReplicaPeerId"], doc.attrib["ReplicaStreamId"])
            for _, doc in self.index.query(query)
        ]

    def verify_index_coherence(self) -> list[str]:
        """Compare every index against its KadoP replica.

        Rebuilds what the indexes *should* contain from the raw ``<Stream>``
        and ``<InChannel>`` documents KadoP holds (the XPath oracle's ground
        truth) and returns a list of human-readable discrepancies -- empty
        when the replica equals the primary.  Exercised by the differential tests and the
        nightly chaos soak after publish/retract/failure churn.
        """
        problems: list[str] = []
        descriptions: dict[str, StreamDescription] = {}
        by_operator: dict[tuple[str, tuple[tuple[str, str], ...]], set[str]] = {}
        by_alerter: dict[tuple[str, str], set[str]] = {}
        replica_map: dict[tuple[str, str], dict[str, tuple[str, str]]] = {}
        replica_keys: dict[str, tuple[str, str]] = {}
        for doc_id in self.index.document_ids:
            document = self.index.document(doc_id)
            if document is None:
                continue
            if document.tag == "Stream":
                description = self._decode(document)
                descriptions[doc_id] = description
                by_operator.setdefault(
                    (description.operator, tuple(sorted(description.operands))), set()
                ).add(doc_id)
                by_alerter.setdefault(
                    (description.peer_id, description.operator), set()
                ).add(doc_id)
            elif document.tag == "InChannel":
                original = (document.attrib["PeerId"], document.attrib["StreamId"])
                replica_map.setdefault(original, {})[doc_id] = (
                    document.attrib["ReplicaPeerId"],
                    document.attrib["ReplicaStreamId"],
                )
                replica_keys[doc_id] = original
        for name, expected, actual in (
            ("descriptions", descriptions, self._descriptions),
            ("by_operator", by_operator, self._by_operator),
            ("by_alerter", by_alerter, self._by_alerter),
            ("replica_map", replica_map, self._replica_map),
            ("replica_keys", replica_keys, self._replica_keys),
        ):
            if expected != actual:
                missing = expected.keys() - actual.keys()
                extra = actual.keys() - expected.keys()
                differing = sorted(
                    key
                    for key in expected.keys() & actual.keys()
                    if expected[key] != actual[key]  # type: ignore[index]
                )[:5]
                problems.append(
                    f"{name}: {len(missing)} missing, {len(extra)} stale, "
                    f"first differing keys {differing}"
                )
        return problems

    # -- index maintenance --------------------------------------------------------------

    def _index_document(self, doc_id: str, document: Element) -> None:
        # doc ids are deterministic and a republish replaces: drop any earlier
        # filing first, or the description would linger under its old
        # operator/alerter/replica keys
        self._deindex_document(doc_id)
        if document.tag == "Stream":
            description = self._decode(document)
            self._descriptions[doc_id] = description
            operator_key = (description.operator, tuple(sorted(description.operands)))
            self._by_operator.setdefault(operator_key, set()).add(doc_id)
            self._by_alerter.setdefault(
                (description.peer_id, description.operator), set()
            ).add(doc_id)
            if description.operator != OPERATOR_NAMES[PUBLISH]:
                self.reuse_version += 1
        elif document.tag == "InChannel":
            original = (document.attrib["PeerId"], document.attrib["StreamId"])
            self._replica_map.setdefault(original, {})[doc_id] = (
                document.attrib["ReplicaPeerId"],
                document.attrib["ReplicaStreamId"],
            )
            self._replica_keys[doc_id] = original

    def _deindex_document(self, doc_id: str) -> None:
        description = self._descriptions.pop(doc_id, None)
        if description is not None:
            operator_key = (description.operator, tuple(sorted(description.operands)))
            bucket = self._by_operator.get(operator_key)
            if bucket is not None:
                bucket.discard(doc_id)
                if not bucket:
                    del self._by_operator[operator_key]
            alerter_key = (description.peer_id, description.operator)
            bucket = self._by_alerter.get(alerter_key)
            if bucket is not None:
                bucket.discard(doc_id)
                if not bucket:
                    del self._by_alerter[alerter_key]
            if description.operator != OPERATOR_NAMES[PUBLISH]:
                self.reuse_version += 1
            return
        original = self._replica_keys.pop(doc_id, None)
        if original is not None:
            providers = self._replica_map.get(original)
            if providers is not None:
                providers.pop(doc_id, None)
                if not providers:
                    del self._replica_map[original]

    # -- decoding -----------------------------------------------------------------------------

    @staticmethod
    def _decode(document: Element) -> StreamDescription:
        operator_element = document.find("Operator")
        operator_child = operator_element.children[0] if operator_element and operator_element.children else None
        operands_element = document.find("Operands")
        operands = tuple(
            (operand.attrib["OPeerId"], operand.attrib["OStreamId"])
            for operand in (operands_element.children if operands_element else [])
        )
        return StreamDescription(
            peer_id=document.attrib["PeerId"],
            stream_id=document.attrib["StreamId"],
            is_channel=document.attrib.get("isAChannel") == "true",
            operator=operator_child.tag if operator_child is not None else "",
            spec=operator_child.attrib.get("spec", "") if operator_child is not None else "",
            operands=operands,
        )
