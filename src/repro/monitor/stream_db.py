"""The Stream Definition Database (Section 5), replicated into the KadoP index.

Every stream produced in the system is described by an XML document::

    <Stream PeerId="..." StreamId="..." isAChannel="...">
      <Operator>...</Operator><Operands>...</Operands>
      <Stats>...</Stats>
    </Stream>

Replicas (peers re-publishing a channel they subscribe to) are described by
``<InChannel>`` documents.  Descriptions are always expressed over the
*original* streams, never over replicas, which is what makes the Reuse
algorithm a sequence of simple tree-pattern queries.  KadoP keeps the
description records themselves: a document is rendered when it is read.
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


#: (operator, is_channel, has operands) -> the terms every ``<Stream>`` of that
#: shape has: a memo of a pure function, so every database may share it; not
#: keyed on the spec, which grows with the subscriptions
_SKELETONS: dict[tuple[str, bool, bool], frozenset[str]] = {}


@dataclass(frozen=True, slots=True)
class StreamDescription:
    """The record of one published stream, as KadoP stores it;
    :meth:`to_element` renders its ``<Stream>`` document."""

    peer_id: str
    stream_id: str
    is_channel: bool
    operator: str
    spec: str
    operands: tuple[tuple[str, str], ...]

    @property
    def qualified_id(self) -> str:
        return f"{self.stream_id}@{self.peer_id}"

    def to_element(self, avg_volume: float = 0.0) -> Element:
        """The ``<Stream>`` document (every attribute is already a ``str``:
        the trusted constructor suffices)."""
        new = Element.fast_new
        operator = new("Operator", {}, [new(self.operator, {"spec": self.spec}, [])])
        operands = new("Operands", {}, [
            new("Operand", {"OPeerId": op_peer, "OStreamId": op_stream}, [])
            for op_peer, op_stream in self.operands
        ])
        stats = new("Stats", {"avgVolume": f"{avg_volume:.1f}"}, [])
        channel = "true" if self.is_channel else "false"
        attrib = {"PeerId": self.peer_id, "StreamId": self.stream_id, "isAChannel": channel}
        return new("Stream", attrib, [operator, operands, stats])

    def terms(self) -> frozenset[str]:
        """The KadoP terms of :meth:`to_element`'s document, derived without
        rendering it: its shape's skeleton plus the spec, id and operand terms."""
        operator, operands = self.operator, self.operands
        shape = (operator, self.is_channel, bool(operands))
        try:
            skeleton = _SKELETONS[shape]
        except KeyError:
            skeleton = _SKELETONS[shape] = frozenset({
                "tag:Stream", "tag:Operator", f"tag:{operator}", "tag:Operands",
                *(["tag:Operand"] if operands else []), "tag:Stats", "attr:Stats@avgVolume=0.0",
                f"attr:Stream@isAChannel={'true' if self.is_channel else 'false'}",
            })
        terms = skeleton | {
            f"attr:{operator}@spec={self.spec}",
            f"attr:Stream@PeerId={self.peer_id}",
            f"attr:Stream@StreamId={self.stream_id}",
        }
        if operands:
            terms |= {
                term for peer, stream in operands
                for term in (f"attr:Operand@OPeerId={peer}", f"attr:Operand@OStreamId={stream}")
            }
        return terms


@dataclass(frozen=True, slots=True)
class ReplicaDescription:
    """The record of one replica provider, as KadoP stores it;
    :meth:`to_element` renders its ``<InChannel>`` document."""

    peer_id: str
    stream_id: str
    replica_peer_id: str
    replica_stream_id: str

    def to_element(self) -> Element:
        return Element.fast_new("InChannel", {"PeerId": self.peer_id, "StreamId": self.stream_id,
                                              "ReplicaPeerId": self.replica_peer_id,
                                              "ReplicaStreamId": self.replica_stream_id}, [])

    def terms(self) -> frozenset[str]:
        return frozenset({"tag:InChannel", f"attr:InChannel@PeerId={self.peer_id}",
                          f"attr:InChannel@StreamId={self.stream_id}",
                          f"attr:InChannel@ReplicaPeerId={self.replica_peer_id}",
                          f"attr:InChannel@ReplicaStreamId={self.replica_stream_id}"})


class StreamDefinitionDatabase:
    """Publish and query stream descriptions; KadoP is the write-behind replica.

    The primary is two in-memory indexes -- one by reuse probe key, the
    replica map -- filed by a publication once it returned and withdrawn
    before a retraction is routed.  Every Section-5 probe reads them, never
    KadoP; descriptions written to KadoP directly are invisible to reuse.
    The XPath queries stay as ``find_*_oracle`` and
    :meth:`verify_index_coherence`, the proof that the replica equals them.
    """

    def __init__(self, index: KadopIndex | None = None) -> None:
        self.index = index if index is not None else KadopIndex()
        #: optional control-plane router (reliable mode): publications and
        #: retractions travel as RPCs to the document's DHT home peer instead
        #: of mutating the index in place -- must expose
        #: ``publish_document(description, doc_id)`` and
        #: ``retract_document(doc_id, owner) -> bool``, ``owner`` being the
        #: publishing peer (None when the database never filed the document)
        self.router = None
        self.streams_published = 0
        self.replicas_published = 0
        self.descriptions_retracted = 0
        #: published ``<Stream>`` descriptions by doc id
        self._descriptions: dict[str, StreamDescription] = {}
        #: the one probe key that reads a description -> doc ids: ``(peer,
        #: alerter kind)`` without operands, ``(operator, sorted operands,
        #: spec)`` with; a Publisher output is never matched and not filed here
        self._by_probe: dict[tuple, set[str]] = {}
        #: (original peer, original stream) -> {doc id: (replica peer, replica stream)}
        self._replica_map: dict[tuple[str, str], dict[str, tuple[str, str]]] = {}
        #: replica doc id -> its original (peer, stream) key, so a replica can
        #: be deindexed even when its document has since been overwritten
        self._replica_keys: dict[str, tuple[str, str]] = {}
        #: bumped whenever a description that can influence reuse *matching*
        #: is filed or deindexed: any ``<Stream>`` except Publisher outputs (a
        #: PUBLISH node is never matched), never an ``<InChannel>`` replica
        #: (replicas only affect provider choice, re-ranked on every probe)
        self.reuse_version = 0
        #: reuse probe keys some signature cache entry watches -- an alerter
        #: probe's ``(peer, kind)``, an operator probe's ``(operator, sorted
        #: operands, spec)`` -- -> the ``reuse_version`` at which a filing or
        #: deindexing last changed that probe's answer; the cache fills it,
        #: the database only stamps keys already in it
        self.watched: dict[tuple, int] = {}

    # -- publication ---------------------------------------------------------------

    def describe_node(
        self, node: PlanNode, peer_id: str, stream_id: str, operand_streams: list[tuple[str, str]], is_channel: bool = True
    ) -> StreamDescription:
        """The description of a deployed plan node's output stream."""
        operator_name = OPERATOR_NAMES.get(node.kind)
        if node.kind == ALERTER:
            operator_name = node.params.get("alerter", "alerter")
        if operator_name is None:
            raise ValueError(f"plan node of kind {node.kind!r} does not produce a stream")
        return StreamDescription(
            peer_id, stream_id, is_channel, operator_name, operator_spec(node), tuple(operand_streams)
        )

    def publish_stream(self, description: StreamDescription) -> str:
        """Store a stream description; returns its document id.  KadoP keeps
        the record itself."""
        doc_id = f"stream:{description.stream_id}@{description.peer_id}"
        self._publish(description, doc_id, description.peer_id)
        if doc_id in self._descriptions:  # a republish replaces the earlier filing
            self._deindex_document(doc_id)
        self._file(doc_id, description)
        self.streams_published += 1  # counted once it landed: a router may raise
        return doc_id

    def publish_node(
        self, node: PlanNode, peer_id: str, stream_id: str, operand_streams: list[tuple[str, str]], is_channel: bool = True
    ) -> str:
        """Describe and publish a deployed node's output stream."""
        return self.publish_stream(self.describe_node(node, peer_id, stream_id, operand_streams, is_channel))

    def publish_replica(
        self, peer_id: str, stream_id: str, replica_peer_id: str, replica_stream_id: str
    ) -> str:
        """Declare that ``replica_peer_id`` can also provide ``stream_id@peer_id``."""
        doc_id = f"replica:{replica_stream_id}@{replica_peer_id}"
        record = ReplicaDescription(peer_id, stream_id, replica_peer_id, replica_stream_id)
        self._publish(record, doc_id, replica_peer_id)
        if doc_id in self._replica_keys:
            self._deindex_document(doc_id)
        self._file_replica(doc_id, (peer_id, stream_id), (replica_peer_id, replica_stream_id))
        self.replicas_published += 1
        return doc_id

    def _publish(self, document: StreamDescription | ReplicaDescription, doc_id: str, owner: str) -> None:
        """Write ``document`` to KadoP -- over the router as its rendering, the
        RPC payload; a routed write that raised may have landed: withdraw it."""
        if self.router is None:
            self.index.publish(document, doc_id)
            return
        try:
            self.router.publish_document(document.to_element(), doc_id)
        except Exception:
            self._deindex_document(doc_id)
            self._withdraw(doc_id, owner)
            raise

    # -- retraction ---------------------------------------------------------------

    def retract(self, doc_id: str) -> bool:
        """Withdraw a published description (stream or replica) by document id.

        Cancellation uses this so that the Reuse algorithm stops matching
        streams that are no longer produced: the indexes forget it first,
        then the withdrawal is routed.  Returns False when KadoP did not
        hold it.
        """
        return self._withdraw(doc_id, self._deindex_document(doc_id))

    def _withdraw(self, doc_id: str, owner: str | None) -> bool:
        if self.router is not None:
            removed = self.router.retract_document(doc_id, owner)
        else:
            removed = self.index.unpublish(doc_id)
        if removed:
            self.descriptions_retracted += 1
        return removed

    # -- queries (the ones of Section 5) -------------------------------------------------

    def find_alerter_streams(self, peer_id: str, alerter_kind: str) -> list[StreamDescription]:
        """``/Stream[@PeerId = $p1][Operator/inCom]`` and friends: the
        sources of ``peer_id`` that read no stream."""
        doc_ids = self._by_probe.get((peer_id, alerter_kind), ())
        return [self._descriptions[doc_id] for doc_id in sorted(doc_ids)]

    def find_operator_streams(
        self,
        operator: str,
        spec: str,
        operands: list[tuple[str, str]],
    ) -> list[StreamDescription]:
        """Find streams computing ``operator`` with ``spec`` over exactly the
        given (at least one) operands."""
        doc_ids = self._by_probe.get((operator, tuple(sorted(operands)), spec), ())
        return [self._descriptions[doc_id] for doc_id in sorted(doc_ids)]

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
        candidates = [decode_description(doc) for _, doc in self.index.query(query)]
        return [c for c in candidates if not c.operands]

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
        candidates = [decode_description(doc) for _, doc in self.index.query(query)]
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

        Rebuilds what the indexes *should* contain from the ``<Stream>`` and
        ``<InChannel>`` documents KadoP renders (the XPath oracle's ground
        truth), and walks each document for the terms its postings must
        list (so a term skeleton that drifts from its documents shows);
        returns a list of human-readable discrepancies -- empty when the
        replica equals the primary.  Exercised by the differential tests and
        the nightly chaos soak after publish/retract/failure churn.
        """
        expected = StreamDefinitionDatabase(self.index)
        filed = self.index.filed_terms()
        misfiled: list[str] = []
        for doc_id in self.index.document_ids:
            document = self.index.document(doc_id)
            if document is None:
                continue
            if filed.get(doc_id) != KadopIndex._terms_of_document(document):
                misfiled.append(doc_id)
            if document.tag == "Stream":
                expected._file(doc_id, decode_description(document))
            elif document.tag == "InChannel":
                replica = decode_description(document)
                original = (replica.peer_id, replica.stream_id)
                expected._file_replica(doc_id, original, (replica.replica_peer_id, replica.replica_stream_id))
        problems = []
        if misfiled:
            problems.append(f"terms: {len(misfiled)} documents filed under terms their walk does not find, "
                            f"first {misfiled[:5]}")
        for name in ("descriptions", "by_probe", "replica_map", "replica_keys"):
            wanted, actual = getattr(expected, f"_{name}"), getattr(self, f"_{name}")
            if wanted != actual:
                missing = wanted.keys() - actual.keys()
                extra = actual.keys() - wanted.keys()
                differing = sorted(key for key in wanted.keys() & actual.keys() if wanted[key] != actual[key])[:5]
                problems.append(
                    f"{name}: {len(missing)} missing, {len(extra)} stale, "
                    f"first differing keys {differing}"
                )
        return problems

    # -- index maintenance --------------------------------------------------------------

    def _file(self, doc_id: str, description: StreamDescription) -> None:
        self._descriptions[doc_id] = description
        operator, operands = description.operator, description.operands
        if operator == OPERATOR_NAMES[PUBLISH]:
            return
        # the probe key of ReuseEngine._match_node -- a membership-driven
        # source has an operand, so no alerter probe reads it -- inline, not
        # a helper: every publication passes here, reuse on or off
        key = (operator, tuple(sorted(operands)), description.spec) if operands else (description.peer_id, operator)
        self._by_probe.setdefault(key, set()).add(doc_id)
        self.reuse_version += 1
        if key in self.watched:
            self.watched[key] = self.reuse_version

    def _file_replica(self, doc_id: str, original: tuple[str, str], replica: tuple[str, str]) -> None:
        self._replica_map.setdefault(original, {})[doc_id] = replica
        self._replica_keys[doc_id] = original

    def _deindex_document(self, doc_id: str) -> str | None:
        """Forget ``doc_id``'s filing; returns the peer that published it
        (None when it was not filed)."""
        description = self._descriptions.pop(doc_id, None)
        if description is not None:
            operator, operands = description.operator, description.operands
            if operator != OPERATOR_NAMES[PUBLISH]:
                # the key and stamp of ``_file``, inline for the same reason: every cancel passes here
                key = (operator, tuple(sorted(operands)), description.spec) if operands else (description.peer_id, operator)
                bucket = self._by_probe[key]
                bucket.discard(doc_id)
                if not bucket:
                    del self._by_probe[key]
                self.reuse_version += 1
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


def decode_description(document: Element) -> StreamDescription | ReplicaDescription:
    """The record of a ``<Stream>`` or ``<InChannel>`` document: what the
    oracle and the coherence check read off KadoP's renderings, and what
    the control plane stores of a routed publication's payload."""
    attrib = document.attrib
    if document.tag == "InChannel":
        return ReplicaDescription(attrib["PeerId"], attrib["StreamId"], attrib["ReplicaPeerId"], attrib["ReplicaStreamId"])
    operator_element = document.find("Operator")
    operator_child = operator_element.children[0] if operator_element and operator_element.children else None
    operands_element = document.find("Operands")
    operands = tuple(
        (operand.attrib["OPeerId"], operand.attrib["OStreamId"])
        for operand in (operands_element.children if operands_element else [])
    )
    return StreamDescription(
        peer_id=attrib["PeerId"],
        stream_id=attrib["StreamId"],
        is_channel=attrib.get("isAChannel") == "true",
        operator=operator_child.tag if operator_child is not None else "",
        spec=operator_child.attrib.get("spec", "") if operator_child is not None else "",
        operands=operands,
    )
