"""KadoP-style P2P XML index over the Chord ring.

KadoP [3] lets "all the peers ... participate in the storage and indexing of
the Stream Definition Database" and supports discovering streams "even when
millions of streams have been declared by tens of thousands of peers".

The index stores whole XML documents (stream descriptions) in the DHT and
maintains postings lists from *terms* -- element tags and (tag, attribute,
value) triples -- to document identifiers.  A tree-pattern query is answered
by intersecting the postings of the terms it mentions and then verifying the
full XPath on the candidate documents, mirroring how KadoP narrows down
candidates before structural verification.

Here it is the write-behind replica of the Stream Definition Database
(``repro.monitor.stream_db``), whose own indexes answer every reuse probe.
A write routes all its keys in one batch and touches each posting once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dht.chord import ChordRing
from repro.xmlmodel.tree import Element
from repro.xmlmodel.xpath import BooleanExpr, Comparison, XPath


@dataclass(frozen=True)
class MembershipEvent:
    """A peer joining or leaving the monitored DHT (feeds ``areRegistered``)."""

    kind: str  # "join" | "leave"
    peer_id: str

    def to_element(self) -> Element:
        tag = "p-join" if self.kind == "join" else "p-leave"
        return Element(tag, text=self.peer_id)


MembershipListener = Callable[[MembershipEvent], None]

_DOCS_KEY = "__all_documents__"

#: Bound on the per-query caches; generated queries embed peer/stream ids, so
#: a long churny run could otherwise grow them without limit.
_QUERY_CACHE_LIMIT = 4096


class KadopIndex:
    """The Stream Definition Database's DHT replica: publish XML descriptions, query by XPath."""

    def __init__(self, ring: ChordRing | None = None) -> None:
        self.ring = ring if ring is not None else ChordRing()
        if len(self.ring) == 0:
            self.ring.join("kadop-seed")
        self._doc_count = 0
        self._membership_listeners: list[MembershipListener] = []
        #: query-result cache keyed on the canonical query string; any
        #: mutation of the document store (publish, unpublish, failure-time
        #: key restoration) invalidates it wholesale
        self._query_cache: dict[str, list[tuple[str, Element]]] = {}
        #: per-query term derivation -- depends only on the query text, so it
        #: survives document-store mutations
        self._query_terms: dict[str, frozenset[str]] = {}
        self.query_cache_hits = 0
        self.query_cache_misses = 0
        #: replica store of every published document, keyed by doc id.  KadoP
        #: replicates index entries across peers; we model that as a full
        #: mirror from which keys lost to an abrupt node failure are restored.
        self._doc_replicas: dict[str, Element] = {}
        #: per-document terms, given or walked once at publish time --
        #: unpublish and failure-time re-replication reuse them instead of
        #: re-walking the document tree per term key
        self._doc_terms: dict[str, frozenset[str]] = {}
        self.keys_restored = 0
        # ensure the catalogue of all doc ids exists
        if self.ring.get(_DOCS_KEY) is None:
            self.ring.put(_DOCS_KEY, set())

    # -- peer membership --------------------------------------------------------

    def join_peer(self, peer_id: str) -> None:
        """A peer registers with the DHT; keys are rebalanced automatically.

        Registration is idempotent with respect to storage membership: a peer
        that already participates in the ring (e.g. because it stores part of
        the index) still produces a ``join`` event for the membership stream.
        """
        if peer_id not in self.ring:
            self.ring.join(peer_id)
        self._notify(MembershipEvent("join", peer_id))

    def leave_peer(self, peer_id: str) -> None:
        """A peer deregisters; its keys move to its successor."""
        if peer_id in self.ring and len(self.ring) > 1:
            self.ring.leave(peer_id)
        self._notify(MembershipEvent("leave", peer_id))

    def fail_peer(self, peer_id: str) -> int:
        """A peer crashes: its ring node vanishes and its keys are lost.

        The surviving ring re-stabilises, and the keys the dead node stored
        are re-replicated from the document mirror onto their new successor
        nodes (KadoP's replication keeps the index available through
        churn).  A ``leave`` membership event is emitted, so dynamic
        alerters stop monitoring the peer.  Returns the number of restored
        keys.
        """
        restored = 0
        if peer_id in self.ring and len(self.ring) > 1:
            restored = self._restore_keys(self.ring.fail(peer_id))
            self.keys_restored += restored
            self._query_cache.clear()
        self._notify(MembershipEvent("leave", peer_id))
        return restored

    def _restore_keys(self, lost: list[str]) -> int:
        """Re-insert lost index keys from the replicated store in one routed batch."""
        restored: dict[str, object] = {
            key: self._doc_replicas[key[len("doc:"):]]
            for key in lost
            if key.startswith("doc:") and key[len("doc:"):] in self._doc_replicas
        }
        if _DOCS_KEY in lost:
            restored[_DOCS_KEY] = set(self._doc_replicas)
        # the lost terms' postings in one pass; a term no document has any more stays gone
        lost_terms = {key[len("term:"):] for key in lost if key.startswith("term:")}
        for doc_id, terms in self._doc_terms.items():
            for term in terms & lost_terms:
                restored.setdefault(f"term:{term}", set()).add(doc_id)  # type: ignore[attr-defined]
        for key, home in zip(restored, self.ring._route(list(restored), None, None)):
            home.storage[key] = restored[key]
        return len(restored)

    def subscribe_membership(self, listener: MembershipListener) -> None:
        """Register a callback invoked on every join/leave (the DHT event stream)."""
        self._membership_listeners.append(listener)

    def _notify(self, event: MembershipEvent) -> None:
        for listener in list(self._membership_listeners):
            listener(event)

    # -- publication ---------------------------------------------------------------

    def publish(self, document: Element, doc_id: str | None = None, terms: frozenset[str] | None = None) -> str:
        """Index ``document`` and return its identifier.

        ``document`` itself is stored, uncopied (ring entry, mirror and query
        results are that object), and belongs to the index from then on: to
        change it, publish a new one under its ``doc_id``, whose lost terms'
        postings are withdrawn.  Given ``terms`` (exactly what
        :meth:`_terms_of_document` would find), the document is not walked.
        All ``2 + T`` keys are routed in one batch; each posting is one ``set.add``."""
        if doc_id is None:
            self._doc_count += 1
            doc_id = f"doc{self._doc_count}"
        if terms is None:
            terms = frozenset(self._terms_of_document(document))
        keys = [f"doc:{doc_id}", _DOCS_KEY, *[f"term:{term}" for term in terms]]
        homes = self.ring._route(keys, None, None)  # the document's home, then one per posting
        homes[0].storage[keys[0]] = document
        self._doc_replicas[doc_id] = document
        # a republish: the terms only the version being replaced had
        stale = self._doc_terms.get(doc_id, terms) - terms
        self._doc_terms[doc_id] = terms
        for key, home in zip(keys[1:], homes[1:]):
            try:
                home.storage[key].add(doc_id)  # type: ignore[attr-defined]
            except KeyError:
                home.storage[key] = {doc_id}
        if stale:
            self._drop_postings([f"term:{term}" for term in stale], doc_id)
        self._query_cache.clear()
        return doc_id

    def unpublish(self, doc_id: str) -> bool:
        """Remove a document from the index.  Returns False when unknown.
        One visit reads and removes the document, then one routed batch withdraws its postings."""
        key = f"doc:{doc_id}"
        if self.ring.storage_for(key).pop(key, None) is None:  # read and remove in the one visit
            return False
        keys = [f"term:{term}" for term in self._doc_terms.pop(doc_id, frozenset())]
        self._drop_postings(keys + [_DOCS_KEY], doc_id)
        self._doc_replicas.pop(doc_id, None)
        self._query_cache.clear()
        return True

    def _drop_postings(self, keys: list[str], doc_id: str) -> None:
        """Withdraw ``doc_id`` from the sets under ``keys``, routed in one batch; emptied term sets go."""
        for key, home in zip(keys, self.ring._route(keys, None, None)):
            try:
                postings = home.storage[key]
            except KeyError:
                continue
            postings.discard(doc_id)  # type: ignore[attr-defined]
            if not postings and key != _DOCS_KEY:
                del home.storage[key]

    def document(self, doc_id: str) -> Element | None:
        document = self.ring.get(f"doc:{doc_id}")
        return document if isinstance(document, Element) else None

    @property
    def document_ids(self) -> list[str]:
        catalogue = self.ring.get(_DOCS_KEY)
        return sorted(catalogue) if isinstance(catalogue, set) else []

    # -- querying ---------------------------------------------------------------------

    def query(self, query: str | XPath) -> list[tuple[str, Element]]:
        """Return ``(doc_id, document)`` pairs whose document matches ``query``.

        Results are cached per canonical query string until the document
        store next mutates, so repeated control-plane probes (the Reuse
        algorithm re-asking the same Stream Definition Database questions)
        cost one dict lookup instead of a posting-list intersection plus a
        structural verification per candidate.
        """
        path = XPath.compile(query) if isinstance(query, str) else query
        cached = self._query_cache.get(path.expression)
        if cached is not None:
            self.query_cache_hits += 1
            return list(cached)
        self.query_cache_misses += 1
        results = self._query_uncached(path)
        if len(self._query_cache) >= _QUERY_CACHE_LIMIT:
            self._query_cache.clear()
        self._query_cache[path.expression] = results
        return list(results)

    def _query_uncached(self, path: XPath) -> list[tuple[str, Element]]:
        candidates = self._candidate_doc_ids(path)
        results: list[tuple[str, Element]] = []
        for doc_id in sorted(candidates):
            document = self.document(doc_id)
            if document is not None and path.matches(document):
                results.append((doc_id, document))
        return results

    def query_lookup_cost(self, query: str | XPath) -> dict[str, float]:
        """Run a query and report the DHT routing cost it incurred.

        Bypasses the query-result cache: this probe exists to measure the
        routing work a cold query costs, not the cache's hit path.
        """
        path = XPath.compile(query) if isinstance(query, str) else query
        before_lookups = self.ring.lookup_count
        before_hops = self.ring.total_hops
        results = self._query_uncached(path)
        lookups = self.ring.lookup_count - before_lookups
        hops = self.ring.total_hops - before_hops
        return {
            "results": len(results),
            "lookups": lookups,
            "hops": hops,
            "hops_per_lookup": hops / lookups if lookups else 0.0,
        }

    # -- internals -----------------------------------------------------------------------

    def _postings(self, term: str) -> set[str]:
        postings = self.ring.get(f"term:{term}")
        return set(postings) if isinstance(postings, set) else set()

    @staticmethod
    def _terms_of_document(document: Element) -> set[str]:
        terms: set[str] = set()
        stack = [document]
        while stack:
            node = stack.pop()
            tag = node.tag
            terms.add(f"tag:{tag}")
            for name, value in node.attrib.items():
                terms.add(f"attr:{tag}@{name}={value}")
            stack.extend(node.children)
        return terms

    def _candidate_doc_ids(self, path: XPath) -> set[str]:
        terms = self._query_terms.get(path.expression)
        if terms is None:
            terms = frozenset(_terms_of_query(path))
            if len(self._query_terms) >= _QUERY_CACHE_LIMIT:
                self._query_terms.clear()
            self._query_terms[path.expression] = terms
        if not terms:
            catalogue = self.ring.get(_DOCS_KEY)
            return set(catalogue) if isinstance(catalogue, set) else set()
        # fetch in deterministic term order (lookup accounting stays stable),
        # then intersect smallest-set-first: the running intersection can
        # only shrink, so starting from the rarest term minimises the work
        # and lets an empty prefix short-circuit the rest
        candidate_sets = [self._postings(term) for term in sorted(terms)]
        candidate_sets.sort(key=len)
        candidates = candidate_sets[0]
        for other in candidate_sets[1:]:
            if not candidates:
                return candidates
            candidates &= other
        return candidates


def _terms_of_query(path: XPath) -> set[str]:
    """Extract index terms that every matching document must contain."""
    terms: set[str] = set()
    for step in path.steps:
        _terms_of_step(step, terms)
    return terms


def _terms_of_step(step, terms: set[str]) -> None:
    tag = None
    if not step.is_attribute and not step.is_text and step.test != "*":
        tag = step.test
        terms.add(f"tag:{tag}")
    for predicate in step.predicates:
        _terms_of_boolean(predicate, tag, terms)


def _terms_of_boolean(expr: BooleanExpr, tag: str | None, terms: set[str]) -> None:
    if expr.kind == "leaf":
        assert expr.leaf is not None
        _terms_of_comparison(expr.leaf, tag, terms)
    elif expr.kind == "and":
        for child in expr.children:
            _terms_of_boolean(child, tag, terms)
    # "or" branches are not required terms: skip them (verification handles it)


def _terms_of_comparison(comparison: Comparison, tag: str | None, terms: set[str]) -> None:
    operands = [comparison.left]
    if comparison.right is not None:
        operands.append(comparison.right)
    # attribute = literal on a named step is a strong, indexable term
    if (
        tag is not None
        and comparison.op == "="
        and comparison.left.kind == "attribute"
        and comparison.right is not None
        and comparison.right.kind == "literal"
    ):
        terms.add(f"attr:{tag}@{comparison.left.value}={comparison.right.value}")
    # path operands contribute their element tags as required terms
    for operand in operands:
        if operand.kind == "path":
            nested = operand.value
            assert isinstance(nested, XPath)
            for step in nested.steps:
                _terms_of_step(step, terms)
