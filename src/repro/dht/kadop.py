"""KadoP-style P2P XML index over the Chord ring.

KadoP [3] lets "all the peers ... participate in the storage and indexing of
the Stream Definition Database" and supports discovering streams "even when
millions of streams have been declared by tens of thousands of peers".

The index stores the Stream Definition Database's (``repro.monitor.stream_db``)
description records in the DHT, each rendering its XML document when it is
read, and maintains postings lists from *terms* -- element tags and (tag,
attribute, value) triples, which a record derives without rendering -- to
document identifiers.  A tree-pattern query is answered by intersecting the
postings of the terms it mentions and then verifying the full XPath on the
candidate documents, mirroring how KadoP narrows down candidates before
structural verification.  The Reuse algorithm's probes use
:meth:`KadopIndex.lookup` instead, a routed exact-term intersection that
needs no structural verification and no cache.  A write takes many records:
each routes its own keys in one batch, and the catalogue and the postings
every record of a shape has are routed and written once per write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dht.chord import ChordNode, ChordRing
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

#: skeleton -> the catalogue and its term keys, which a publish routes once per call
_SHARED_KEYS: dict[frozenset[str], tuple[str, ...]] = {}

#: Bound on the query-result cache; generated queries embed peer/stream ids, so
#: a long churny run could otherwise grow it without limit.
_QUERY_CACHE_LIMIT = 4096


class KadopIndex:
    """The Stream Definition Database's DHT store: publish description records, look them up by term or XPath."""

    def __init__(self, ring: ChordRing | None = None) -> None:
        self.ring = ring if ring is not None else ChordRing()
        if len(self.ring) == 0:
            self.ring.join("kadop-seed")
        self._membership_listeners: list[MembershipListener] = []
        #: query-result cache keyed on the canonical query string; any
        #: mutation of the document store (publish, unpublish, failure-time
        #: key restoration) invalidates it wholesale
        self._query_cache: dict[str, list[tuple[str, Element]]] = {}
        self.query_cache_hits = 0
        self.query_cache_misses = 0
        #: replica store of every published record, keyed by doc id.  KadoP
        #: replicates index entries across peers; we model that as a full
        #: mirror from which keys lost to an abrupt node failure are restored,
        #: and from which :meth:`lookup` and the Stream Definition Database
        #: read a record without routing to its home.
        self.records: dict[str, object] = {}
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
            key: self.records[key[len("doc:"):]]
            for key in lost
            if key.startswith("doc:") and key[len("doc:"):] in self.records
        }
        if _DOCS_KEY in lost:
            restored[_DOCS_KEY] = set(self.records)
        # the lost terms' postings in one pass; a term no document has any more stays gone
        lost_terms = {key[len("term:"):] for key in lost if key.startswith("term:")}
        if lost_terms:
            for doc_id, record in self.records.items():
                for term in record.terms() & lost_terms:  # type: ignore[attr-defined]
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

    def publish(self, entries: dict[str, object]) -> None:
        """Index each ``{doc_id: record}`` entry: the record itself, uncopied (a
        new one under its ``doc_id`` withdraws the postings only the old one
        had).  ``record.term_parts()`` splits its terms into its shape's
        skeleton and its own.  Its document key and own terms are routed in
        one batch as it is written; the catalogue and each skeleton term are
        routed once per call, with the first record that has them, and
        written once per shape, so one entry routes ``2 + T`` keys in one batch."""
        if not entries:
            return
        records = self.records
        shapes: dict[frozenset[str], list[str]] = {}  # skeleton -> this call's doc ids that have it
        shared: dict[str, ChordNode] = {}  # the catalogue and the skeleton keys routed so far -> home
        for doc_id in entries:
            record = entries[doc_id]
            skeleton, own = record.term_parts()  # type: ignore[attr-defined]
            own_keys = [f"term:{term}" for term in own]
            routed: tuple[str, ...] | list[str] = ()
            if skeleton in shapes:
                shapes[skeleton].append(doc_id)
            else:
                shapes[skeleton] = [doc_id]
                if skeleton not in _SHARED_KEYS:
                    _SHARED_KEYS[skeleton] = (_DOCS_KEY, *[f"term:{term}" for term in skeleton])
                routed = [key for key in _SHARED_KEYS[skeleton] if key not in shared] if shared else _SHARED_KEYS[skeleton]
            keys = [f"doc:{doc_id}", *own_keys, *routed]
            homes = self.ring._route(keys, None, None)  # the document's home, one per own posting, then the shared
            homes[0].storage[keys[0]] = record
            for key, home in zip(own_keys, homes[1:]):
                storage = home.storage
                try:
                    postings = storage[key]
                except KeyError:
                    storage[key] = doc_id  # a bare id until the posting's second document
                    continue
                if postings.__class__ is not str:
                    postings.add(doc_id)  # type: ignore[attr-defined]
                elif postings != doc_id:
                    storage[key] = {postings, doc_id}
            for key, home in zip(reversed(routed), reversed(homes)):
                shared[key] = home
            if doc_id in records:  # a republish: the terms only the version being replaced had
                stale = records[doc_id].terms() - skeleton - own  # type: ignore[attr-defined]
                if stale:
                    self._drop_postings([f"term:{term}" for term in stale], doc_id)
            records[doc_id] = record
        for skeleton in shapes:
            for key in _SHARED_KEYS[skeleton][1:]:
                storage = shared[key].storage
                postings = storage[key] if key in storage else set()
                storage[key] = postings = {postings} if postings.__class__ is str else postings
                postings.update(shapes[skeleton])  # type: ignore[attr-defined]
        shared[_DOCS_KEY].storage[_DOCS_KEY].update(entries)  # type: ignore[attr-defined]
        self._query_cache.clear()

    def unpublish(self, doc_id: str) -> bool:
        """Remove a document from the index.  Returns False when unknown.
        One visit reads and removes the document, then one routed batch withdraws its postings."""
        key = f"doc:{doc_id}"
        record = self.ring.storage_for(key).pop(key, None)  # read and remove in the one visit
        if record is None:
            return False
        self._drop_postings([f"term:{term}" for part in record.term_parts() for term in part] + [_DOCS_KEY], doc_id)  # type: ignore[attr-defined]
        self.records.pop(doc_id, None)
        self._query_cache.clear()
        return True

    def _drop_postings(self, keys: list[str], doc_id: str) -> None:
        """Withdraw ``doc_id`` from the sets under ``keys``, routed in one batch; emptied term sets go."""
        for key, home in zip(keys, self.ring._route(keys, None, None)):
            try:
                postings = home.storage[key]
            except KeyError:
                continue
            if postings == doc_id:  # a bare id, this document's
                del home.storage[key]
            elif postings.__class__ is not str:
                postings.discard(doc_id)  # type: ignore[attr-defined]
                if not postings and key != _DOCS_KEY:
                    del home.storage[key]

    def document(self, doc_id: str) -> Element | None:
        """``doc_id``'s document (None if unknown), rendered afresh by its record per read."""
        record = self.ring.get(f"doc:{doc_id}")
        return None if record is None else record.to_element()  # type: ignore[attr-defined, no-any-return]

    def filed_terms(self) -> dict[str, set[str]]:
        """Doc id -> the terms whose postings list it, read off the ring's storage unrouted."""
        filed: dict[str, set[str]] = {}
        for node in self.ring.nodes():
            for key, postings in node.storage.items():
                if key.startswith("term:"):
                    for doc_id in (postings,) if isinstance(postings, str) else postings:  # type: ignore[attr-defined]
                        filed.setdefault(doc_id, set()).add(key[len("term:"):])
        return filed

    @property
    def document_ids(self) -> list[str]:
        catalogue = self.ring.get(_DOCS_KEY)
        return sorted(catalogue) if isinstance(catalogue, set) else []

    # -- querying ---------------------------------------------------------------------

    def lookup(self, terms: list[str]) -> list[object]:
        """The records (from :attr:`records`, in doc-id order) listed under every one of ``terms``,
        whose postings are routed in one batch and intersected up to the first missing or empty
        one: uncached and unverified (an exact term needs no structural check)."""
        keys = [f"term:{term}" for term in terms]
        found: set[str] | None = None
        for key, home in zip(keys, self.ring._route(keys, None, None)):
            postings = home.storage.get(key)
            if not postings:
                return []
            postings = {postings} if postings.__class__ is str else postings
            found = postings if found is None else found & postings  # type: ignore[assignment, operator]
        return [self.records[doc_id] for doc_id in sorted(found)]  # type: ignore[arg-type]

    def query(self, query: str | XPath) -> list[tuple[str, Element]]:
        """Return ``(doc_id, document)`` pairs whose document matches ``query``.

        Results are cached per canonical query string until the document
        store next mutates.  No reuse probe asks this (they are
        :meth:`lookup`s), and :meth:`query_lookup_cost` bypasses the cache:
        only the XPath oracles use it, so the workloads never hit it.
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
        return {postings} if isinstance(postings, str) else set(postings) if isinstance(postings, set) else set()

    @staticmethod
    def _terms_of_document(document: Element) -> set[str]:
        """The terms a walk of ``document`` finds: what a record's ``terms()`` must equal on its rendering."""
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
        terms = _terms_of_query(path)
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
