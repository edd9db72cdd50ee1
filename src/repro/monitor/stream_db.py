"""The Stream Definition Database (Section 5), stored in the KadoP index.

Every stream produced in the system is described by an XML document::

    <Stream PeerId="..." StreamId="..." isAChannel="...">
      <Operator>...</Operator><Operands>...</Operands>
      <Stats>...</Stats>
    </Stream>

Replicas (peers re-publishing a channel they subscribe to) are described by
``<InChannel>`` documents.  Descriptions are always expressed over the
*original* streams, never over replicas, which is what makes the Reuse
algorithm a sequence of exact-term lookups over KadoP's postings.  KadoP
keeps the description records, and nothing else does: it renders a document when it is read.
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
from repro.net.errors import PayloadError
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
#: the terms every ``<InChannel>`` has
_REPLICA_SKELETON = frozenset({"tag:InChannel"})


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

    def term_parts(self) -> tuple[frozenset[str], set[str]]:
        """The KadoP terms of :meth:`to_element`'s document, derived without
        rendering it: its shape's skeleton, and the spec, id and operand terms of its own."""
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
        own = {
            f"attr:{operator}@spec={self.spec}",
            f"attr:Stream@PeerId={self.peer_id}",
            f"attr:Stream@StreamId={self.stream_id}",
        }
        if operands:
            own |= {
                term for peer, stream in operands
                for term in (f"attr:Operand@OPeerId={peer}", f"attr:Operand@OStreamId={stream}")
            }
        return skeleton, own

    def terms(self) -> frozenset[str]:
        """Every KadoP term of :meth:`to_element`'s document: both of :meth:`term_parts`."""
        skeleton, own = self.term_parts()
        return skeleton | own


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

    def term_parts(self) -> tuple[frozenset[str], set[str]]:
        return _REPLICA_SKELETON, {f"attr:InChannel@PeerId={self.peer_id}",
                                   f"attr:InChannel@StreamId={self.stream_id}",
                                   f"attr:InChannel@ReplicaPeerId={self.replica_peer_id}",
                                   f"attr:InChannel@ReplicaStreamId={self.replica_stream_id}"}

    terms = StreamDescription.terms


class StreamDefinitionDatabase:
    """Publish and query stream descriptions, which KadoP stores.

    A description lives in KadoP alone: its record in the ring (and in the
    restore mirror, :attr:`KadopIndex.records`), its terms in the postings.
    Both Section-5 match probes are routed exact-term lookups there
    (:meth:`KadopIndex.lookup`), so a record written to KadoP directly is
    found too.  The database itself keeps what KadoP's terms do not rank:
    the replica map provider choice reads, and the ``reuse_version`` /
    ``watched`` stamps the signature cache reads.  The XPath queries stay
    as ``find_*_oracle``; :meth:`verify_index_coherence` holds the postings
    and the replica map to KadoP's documents.
    """

    def __init__(self, index: KadopIndex | None = None) -> None:
        self.index = index if index is not None else KadopIndex()
        #: optional control-plane router (reliable mode): publications and
        #: retractions travel as RPCs to the document's DHT home peer instead
        #: of mutating the index in place -- must expose
        #: ``publish_document(record, doc_id, owner)`` and
        #: ``retract_document(doc_id, owner) -> bool``, ``owner`` being the
        #: publishing peer (None when KadoP holds no record of the document)
        self.router = None
        #: doc id -> record held for the next :meth:`flush` while a ``subscribe_many``
        #: runs, else None: every read of KadoP below flushes first
        self.pending: dict[str, StreamDescription | ReplicaDescription] | None = None
        self.streams_published = 0
        self.replicas_published = 0
        self.descriptions_retracted = 0
        #: (original peer, original stream) -> {doc id: (replica peer, replica stream)}
        self._replica_map: dict[tuple[str, str], dict[str, tuple[str, str]]] = {}
        #: bumped whenever a description that can influence reuse *matching*
        #: is published or retracted: any ``<Stream>`` except Publisher
        #: outputs (a PUBLISH node is never matched), never an ``<InChannel>``
        #: replica (replicas only affect provider choice, re-ranked on every probe)
        self.reuse_version = 0
        #: reuse probe keys some signature cache entry watches -- an alerter
        #: probe's ``(peer, kind)``, an operator probe's ``(operator, sorted
        #: operands, spec)`` -- -> the ``reuse_version`` at which a
        #: publication or retraction last changed that probe's answer; the
        #: cache fills it, the database only stamps keys already in it
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
        if self.pending and doc_id in self.pending:
            self.flush()  # a held republish: its stamp reads the held record
        records = self.index.records
        if doc_id in records:  # a republish: the record it replaces stops answering its probe
            self._stamp(records[doc_id])
        self._publish(description, doc_id, description.peer_id)
        self._stamp(description)
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
        if self.pending and doc_id in self.pending:
            self.flush()  # a held republish: its check reads the held record
        records = self.index.records
        if doc_id in records:  # a republish: the replica it replaces stops providing
            self._unmap_replica(doc_id, records[doc_id])
        self._publish(ReplicaDescription(peer_id, stream_id, replica_peer_id, replica_stream_id), doc_id, replica_peer_id)
        self._replica_map.setdefault((peer_id, stream_id), {})[doc_id] = (replica_peer_id, replica_stream_id)
        self.replicas_published += 1
        return doc_id

    def _publish(self, record: StreamDescription | ReplicaDescription, doc_id: str, owner: str) -> None:
        """Write ``record`` to KadoP, or hold it while writes are held; over the
        router from ``owner`` when there is one, never held: a routed write that
        raised may have landed, so withdraw it."""
        if self.router is None:
            if self.pending is None:
                self.index.publish({doc_id: record})
            else:
                self.pending[doc_id] = record
            return
        try:
            self.router.publish_document(record, doc_id, owner)
        except Exception:
            self._withdraw(doc_id, owner)
            raise

    def flush(self, hold: bool = True) -> None:
        """Write the held descriptions to KadoP in one pass, and go on holding
        unless ``hold`` is false."""
        pending, self.pending = self.pending, {} if hold else None
        if pending:
            self.index.publish(pending)

    # -- retraction ---------------------------------------------------------------

    def retract(self, doc_id: str) -> bool:
        """Withdraw a published description (stream or replica) by document id.

        Cancellation uses this so that the Reuse algorithm stops matching
        streams that are no longer produced: the record KadoP holds is
        stamped or unmapped, then its withdrawal is routed from the peer it
        names; a held one is dropped unrouted.  Returns False when KadoP did not hold it.
        """
        records = self.index.records
        held = self.pending.pop(doc_id, None) if self.pending else None
        owner = None
        if held is not None or doc_id in records:
            record = records[doc_id] if held is None else held
            if type(record) is StreamDescription:
                self._stamp(record)
                owner = record.peer_id
            else:
                self._unmap_replica(doc_id, record)
                owner = record.replica_peer_id
            if held is not None and doc_id not in records:  # never written: nothing to withdraw
                self.descriptions_retracted += 1
                return True
        return self._withdraw(doc_id, owner)

    def _withdraw(self, doc_id: str, owner: str | None) -> bool:
        if self.router is not None:
            removed = self.router.retract_document(doc_id, owner)
        else:
            removed = self.index.unpublish(doc_id)
        if removed:
            self.descriptions_retracted += 1
        return removed

    def _stamp(self, description: StreamDescription) -> None:
        """``description`` is published or withdrawn: bump ``reuse_version``
        and stamp the key of the probe that reads it, if some entry watches it."""
        operator = description.operator
        if operator == OPERATOR_NAMES[PUBLISH]:
            return
        self.reuse_version += 1
        watched = self.watched
        if watched:
            # the probe key of ReuseEngine._match_node -- a membership-driven
            # source has an operand, so no alerter probe reads it
            operands = description.operands
            key = (operator, tuple(sorted(operands)), description.spec) if operands else (description.peer_id, operator)
            if key in watched:
                watched[key] = self.reuse_version

    def _unmap_replica(self, doc_id: str, replica: ReplicaDescription) -> None:
        original = (replica.peer_id, replica.stream_id)
        providers = self._replica_map.get(original)
        if providers is not None and providers.pop(doc_id, None) is not None and not providers:
            del self._replica_map[original]

    # -- queries (the ones of Section 5) -------------------------------------------------

    def find_alerter_streams(self, peer_id: str, alerter_kind: str) -> list[StreamDescription]:
        """``/Stream[@PeerId = $p1][Operator/inCom]`` and friends: the
        sources of ``peer_id`` that read no stream, looked up by two terms."""
        if alerter_kind == OPERATOR_NAMES[PUBLISH]:
            return []
        if self.pending:
            self.flush()
        found = self.index.lookup([f"tag:{alerter_kind}", f"attr:Stream@PeerId={peer_id}"])
        return [record for record in found if record.operator == alerter_kind and not record.operands]

    def find_operator_streams(
        self,
        operator: str,
        spec: str,
        operands: list[tuple[str, str]],
    ) -> list[StreamDescription]:
        """Find streams computing ``operator`` with ``spec`` over exactly the
        given (at least one) operands, looked up by the spec and operand terms."""
        if operator == OPERATOR_NAMES[PUBLISH]:
            return []
        if self.pending:
            self.flush()
        terms = [f"attr:{operator}@spec={spec}", *[f"attr:Operand@OStreamId={stream}" for _, stream in operands]]
        found = self.index.lookup(terms)
        wanted = sorted(operands)
        return [record for record in found if sorted(record.operands) == wanted]

    def find_replicas(self, peer_id: str, stream_id: str) -> list[tuple[str, str]]:
        """Replica providers of ``stream_id@peer_id`` as (peer, stream) pairs."""
        providers = self._replica_map.get((peer_id, stream_id))
        if providers is None:
            return []
        return [providers[doc_id] for doc_id in sorted(providers)]

    def all_stream_descriptions(self) -> list[StreamDescription]:
        if self.pending:
            self.flush()
        records = self.index.records
        return [records[doc_id] for doc_id in sorted(records) if type(records[doc_id]) is StreamDescription]

    # -- the XPath query path, retained as the differential oracle ----------------------

    def find_alerter_streams_oracle(
        self, peer_id: str, alerter_kind: str
    ) -> list[StreamDescription]:
        if self.pending:
            self.flush()
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
        if self.pending:
            self.flush()
        candidates = [decode_description(doc) for _, doc in self.index.query(query)]
        # exact operand-set match: the query guarantees inclusion, not equality
        wanted = sorted(operands)
        return [c for c in candidates if sorted(c.operands) == wanted]

    def find_replicas_oracle(self, peer_id: str, stream_id: str) -> list[tuple[str, str]]:
        if self.pending:
            self.flush()
        query = f"/InChannel[@PeerId = '{peer_id}'][@StreamId = '{stream_id}']"
        return [
            (doc.attrib["ReplicaPeerId"], doc.attrib["ReplicaStreamId"])
            for _, doc in self.index.query(query)
        ]

    def verify_index_coherence(self) -> list[str]:
        """Compare KadoP's postings and the replica map with KadoP's documents.

        Holds the doc ids of the catalogue, of the postings and of the
        restore mirror to one another, reports a catalogued document the
        ring no longer returns, walks each document KadoP renders for the
        terms its postings must list (so a term skeleton that drifts from
        its documents shows), and rebuilds the replica map from the
        ``<InChannel>`` documents; returns a list of human-readable
        discrepancies -- empty when all agree.  Exercised by the
        differential tests and the nightly chaos soak after
        publish/retract/failure churn.
        """
        if self.pending:
            self.flush()
        filed = self.index.filed_terms()
        catalogue = self.index.document_ids
        # views, not copies: the check runs over a live system's whole index
        sources = {"catalogue": set(catalogue), "postings": filed.keys(), "records": self.index.records.keys()}
        problems = []
        for name, listed in sources.items():
            unlisted = sorted({doc_id for ids in sources.values() for doc_id in ids if doc_id not in listed})
            if unlisted:
                problems.append(f"{name}: {len(unlisted)} doc ids missing that the others list, first {unlisted[:5]}")
        lost: list[str] = []
        misfiled: list[str] = []
        replicas: dict[tuple[str, str], dict[str, tuple[str, str]]] = {}
        for doc_id in catalogue:
            document = self.index.document(doc_id)
            if document is None:
                lost.append(doc_id)
                continue
            if filed.get(doc_id) != KadopIndex._terms_of_document(document):
                misfiled.append(doc_id)
            if document.tag == "InChannel":
                replica = decode_description(document)
                replicas.setdefault((replica.peer_id, replica.stream_id), {})[doc_id] = (
                    replica.replica_peer_id, replica.replica_stream_id)
        if lost:
            problems.append(f"documents: {len(lost)} catalogued documents the ring does not return, first {lost[:5]}")
        if misfiled:
            problems.append(f"terms: {len(misfiled)} documents filed under terms their walk does not find, "
                            f"first {misfiled[:5]}")
        if replicas != self._replica_map:
            missing = replicas.keys() - self._replica_map.keys()
            extra = self._replica_map.keys() - replicas.keys()
            differing = sorted(key for key in replicas.keys() & self._replica_map.keys()
                               if replicas[key] != self._replica_map[key])[:5]
            problems.append(f"replica_map: {len(missing)} missing, {len(extra)} stale, "
                            f"first differing keys {differing}")
        return problems


def decode_description(document: Element) -> StreamDescription | ReplicaDescription:
    """The record of a ``<Stream>`` or ``<InChannel>`` document: what the
    oracle and the coherence check read off KadoP's renderings, and what
    the control plane stores of a routed publication's payload.  A document
    no record renders -- an id attribute (an operand's too), the
    ``<Operator>`` child or its ``spec`` missing, a second ``<Operator>`` child,
    an ``<Operands>`` child not an ``<Operand>`` -- raises :class:`~repro.net.errors.PayloadError`."""
    attrib = document.attrib
    try:
        if document.tag == "InChannel":
            return ReplicaDescription(attrib["PeerId"], attrib["StreamId"], attrib["ReplicaPeerId"], attrib["ReplicaStreamId"])
        peer_id, stream_id = attrib["PeerId"], attrib["StreamId"]
        operands_element = document.find("Operands")
        operands = []
        for operand in operands_element.children if operands_element else ():
            if operand.tag != "Operand":
                raise PayloadError(document.tag, f"an Operand in place of <{operand.tag}>")
            operands.append((operand.attrib["OPeerId"], operand.attrib["OStreamId"]))
    except KeyError as error:
        raise PayloadError(document.tag, error.args[0]) from None
    operator_element = document.find("Operator")
    if operator_element is None or not operator_element.children:
        raise PayloadError(document.tag, "an Operator child")
    if len(operator_element.children) > 1:
        raise PayloadError(document.tag, "a lone Operator child")
    operator_child = operator_element.children[0]
    if "spec" not in operator_child.attrib:
        raise PayloadError(document.tag, "spec")
    return StreamDescription(peer_id, stream_id, attrib.get("isAChannel") == "true",
                             operator_child.tag, operator_child.attrib["spec"], tuple(operands))
