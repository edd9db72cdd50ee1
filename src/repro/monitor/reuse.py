"""The Reuse algorithm (Section 5): mapping plan nodes to existing streams.

"The algorithm proceeds from the 'leaves' of the monitoring plan, attempting
to map nodes in the plan to existing streams.  Operators that have all their
operands matched generate queries to the database.  The result of the
queries determines whether this operator will be mapped to an existing
stream.  For a node that is matched, the algorithm searches for possible
replicas of the streams to substitute for that node.  The nodes that have
not been matched correspond to new streams that have to be produced."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.plan import ALERTER, EXISTING, PUBLISH, PlanNode, plan_signature
from repro.monitor.stream_db import OPERATOR_NAMES, StreamDefinitionDatabase, operator_spec
from repro.net.simnet import SimNetwork


@dataclass
class ReuseReport:
    """What the reuse pass found and replaced."""

    nodes_considered: int = 0
    nodes_reused: int = 0
    reused: list[tuple[str, str, str]] = field(default_factory=list)  # (kind, stream, provider)
    queries_issued: int = 0
    #: True when the whole pass was answered from the signature cache
    cache_hit: bool = False

    @property
    def savings_ratio(self) -> float:
        if self.nodes_considered == 0:
            return 0.0
        return self.nodes_reused / self.nodes_considered


def reuse_cache_key(plan: PlanNode) -> tuple[str, str]:
    """Cache key under which a whole reuse pass may be replayed.

    ``plan_signature`` alone is deliberately coarse (it identifies plans that
    *compute the same streams*, ignoring variable names and local publication
    targets), so the key extends it with the per-node parameters that shape
    the deployed plan.  Plans whose keys are equal get identical rewrites
    from identical database states.
    """
    parts: list[str] = []
    for node in plan.iter_nodes():
        keys = [
            "var",
            "left_var",
            "right_var",
            "membership_var",
            "mode",
            "key",
            "every",
            "criterion",
        ]
        if node.params.get("mode") != "local":
            # a local-mode PUBLISH embeds the subscription id as its target,
            # but deployment ignores it: keying on it would make every
            # locally-consumed subscription's key unique for no reason
            keys += ["target", "subscriber"]
        extras = [str(node.params.get(key, "")) for key in keys]
        parts.append("\x1f".join(extras))
    return plan_signature(plan), "\x1e".join(parts)


@dataclass
class _CachedRewrite:
    """One replayable reuse outcome: the rewritten plan and what it matched."""

    version: int
    plan: PlanNode
    nodes_considered: int
    #: (original node kind, canonical (peer, stream)) per match, in visit order
    reused_originals: list[tuple[str, tuple[str, str]]]
    #: for each EXISTING node of ``plan`` in post-order: index into
    #: ``reused_originals`` of the match that produced it
    existing_indices: list[int]


class ReuseSignatureCache:
    """Interned reuse outcomes keyed by plan signature.

    Entries are valid only while the Stream Definition Database's
    ``reuse_version`` is unchanged (no reuse-relevant description published
    or retracted since); provider choices are *not* cached -- they are
    re-ranked on every hit, so replica churn and peer failures never serve a
    stale provider.
    """

    #: bound on interned rewrites: each entry holds a deep-copied plan, and a
    #: long run ingesting many distinct subscription shapes would otherwise
    #: accumulate version-stale entries without limit
    LIMIT = 1024

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], _CachedRewrite] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple[str, str], version: int) -> _CachedRewrite | None:
        entry = self._entries.get(key)
        if entry is None or entry.version != version:
            return None
        return entry

    def put(self, key: tuple[str, str], entry: _CachedRewrite) -> None:
        if len(self._entries) >= self.LIMIT and key not in self._entries:
            # drop the version-stale dead weight first; clear outright only
            # when the live entries alone exceed the bound
            stale = [k for k, e in self._entries.items() if e.version != entry.version]
            for k in stale:
                del self._entries[k]
            if len(self._entries) >= self.LIMIT:
                self._entries.clear()
        self._entries[key] = entry

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class ReuseEngine:
    """Rewrites a plan so that sub-plans already computed elsewhere are reused."""

    def __init__(
        self,
        stream_db: StreamDefinitionDatabase,
        network: SimNetwork | None = None,
        consumer_peer: str | None = None,
        signature_cache: ReuseSignatureCache | None = None,
    ) -> None:
        self.stream_db = stream_db
        self.network = network
        self.consumer_peer = consumer_peer
        self.signature_cache = signature_cache
        #: id(EXISTING node) -> index into report.reused, recorded during a
        #: visit so the signature cache can re-rank providers on replay
        self._existing_entries: dict[int, int] = {}
        #: (original node kind, canonical (peer, stream)) per match, in visit
        #: order -- the replayable part of ``report.reused``
        self._reused_originals: list[tuple[str, tuple[str, str]]] = []

    def apply(
        self, plan: PlanNode, key: tuple[str, str] | None = None
    ) -> tuple[PlanNode, ReuseReport]:
        """Rewrite ``plan``, which the caller donates, and report what was reused.

        ``key`` is the plan's :func:`reuse_cache_key` when the caller holds it
        already: a plan template computes it once for all its instances.
        """
        report = ReuseReport()
        cache = self.signature_cache
        if cache is not None:
            if key is None:
                key = reuse_cache_key(plan)
            entry = cache.get(key, self.stream_db.reuse_version)
            if entry is not None:
                cache.hits += 1
                return self._replay(entry, report), report
            cache.misses += 1
        self._existing_entries.clear()
        self._reused_originals = []
        rewritten, _ = self._visit(plan, report)
        if cache is not None and key is not None:
            existing_indices = [
                self._existing_entries[id(node)]
                for node in rewritten.iter_nodes()
                if node.kind == EXISTING
            ]
            cache.put(
                key,
                _CachedRewrite(
                    version=self.stream_db.reuse_version,
                    plan=rewritten.copy(),
                    nodes_considered=report.nodes_considered,
                    reused_originals=list(self._reused_originals),
                    existing_indices=existing_indices,
                ),
            )
        self._existing_entries.clear()
        return rewritten, report

    def _replay(self, entry: _CachedRewrite, report: ReuseReport) -> PlanNode:
        """Rebuild a cached rewrite, re-ranking every provider choice."""
        rewritten = entry.plan.copy()
        report.cache_hit = True
        report.nodes_considered = entry.nodes_considered
        report.nodes_reused = len(entry.reused_originals)
        providers: list[tuple[str, str]] = []
        for kind, original in entry.reused_originals:
            provider = self._select_provider(original, report)
            providers.append(provider)
            report.reused.append((kind, f"{original[1]}@{original[0]}", provider[0]))
        existing_nodes = [
            node for node in rewritten.iter_nodes() if node.kind == EXISTING
        ]
        for node, index in zip(existing_nodes, entry.existing_indices):
            provider_peer, provider_stream = providers[index]
            # provider_* params are the one sanctioned post-construction
            # mutation: they never feed signature details or specs
            node.params["provider_peer"] = provider_peer
            node.params["provider_stream_id"] = provider_stream
        return rewritten

    # -- bottom-up matching -----------------------------------------------------------

    def _visit(
        self, node: PlanNode, report: ReuseReport
    ) -> tuple[PlanNode, tuple[str, str] | None]:
        """Returns (rewritten node, (peer, stream) of the matching stream or None)."""
        if node.kind == PUBLISH:
            # publication is always performed anew for the new subscription
            node.children = [self._visit(child, report)[0] for child in node.children]
            return node, None

        child_results = [self._visit(child, report) for child in node.children]
        node.children = [child for child, _ in child_results]
        child_matches = [match for _, match in child_results]
        report.nodes_considered += 1

        match = self._match_node(node, child_matches, report)
        if match is None:
            return node, None

        provider_peer, provider_stream = self._select_provider(match, report)
        report.nodes_reused += 1
        report.reused.append((node.kind, f"{match[1]}@{match[0]}", provider_peer))
        self._reused_originals.append((node.kind, match))
        existing = PlanNode(
            EXISTING,
            {
                # canonical (original) identity, used when describing derived streams
                "peer": match[0],
                "stream_id": match[1],
                # where to actually fetch the data from (a replica may be closer)
                "provider_peer": provider_peer,
                "provider_stream_id": provider_stream,
                "var": node.params.get("var"),
            },
            [],
        )
        self._existing_entries[id(existing)] = len(report.reused) - 1
        return existing, match

    def _match_node(
        self,
        node: PlanNode,
        child_matches: list[tuple[str, str] | None],
        report: ReuseReport,
    ) -> tuple[str, str] | None:
        if node.kind == EXISTING:
            return node.params["peer"], node.params["stream_id"]
        if node.kind == ALERTER:
            peer = node.params.get("peer")
            if not peer or peer == "local":
                return None
            report.queries_issued += 1
            found = self.stream_db.find_alerter_streams(peer, node.params.get("alerter", ""))
            if found:
                return found[0].peer_id, found[0].stream_id
            return None
        # an inner operator can only be reused when every operand matched
        if not child_matches or any(match is None for match in child_matches):
            return None
        operator_name = OPERATOR_NAMES.get(node.kind)
        if operator_name is None:
            return None
        report.queries_issued += 1
        found = self.stream_db.find_operator_streams(
            operator_name,
            operator_spec(node),
            [match for match in child_matches if match is not None],
        )
        if found:
            return found[0].peer_id, found[0].stream_id
        return None

    # -- replica selection ---------------------------------------------------------------

    def _select_provider(
        self, original: tuple[str, str], report: ReuseReport
    ) -> tuple[str, str]:
        """Pick the original stream or one of its replicas, preferring a close provider."""
        if self.network is None or self.consumer_peer is None:
            # no network/consumer context to rank candidates: the original
            # stream is the answer, so don't touch the database at all
            return original
        report.queries_issued += 1
        replicas = self.stream_db.find_replicas(*original)
        if not replicas:
            return original
        return self.network.nearest(self.consumer_peer, [original, *replicas])
