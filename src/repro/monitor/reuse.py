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
from typing import TYPE_CHECKING

from repro.algebra.plan import ALERTER, EXISTING, JOIN, PUBLISH, UNION, PlanNode, plan_signature
from repro.monitor.stream_db import OPERATOR_NAMES, StreamDefinitionDatabase, operator_spec
from repro.net.simnet import SimNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.deployment import DeploymentRecipe
    from repro.p2pml.compiler import PlanTemplate


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


#: the per-node parameters that shape a deployed plan beyond its signature
_KEY_PARAMS = (
    "var", "left_var", "right_var", "membership_var", "mode", "key", "every", "criterion", "target", "subscriber"
)


def reuse_cache_key(plan: PlanNode) -> tuple[str, str]:
    """Cache key under which a whole reuse pass may be replayed.

    ``plan_signature`` alone is deliberately coarse (it identifies plans that
    *compute the same streams*, ignoring variable names), so the key extends
    it with the per-node parameters that shape the deployed plan.  Plans
    whose keys are equal get identical rewrites from identical database
    states.
    """
    parts = ["\x1f".join([str(node.params.get(name, "")) for name in _KEY_PARAMS]) for node in plan.iter_nodes()]
    return plan_signature(plan), "\x1e".join(parts)


@dataclass
class _CachedRewrite:
    """One replayable reuse outcome: the rewritten plan and what it matched.

    A ``fixed`` rewrite (no JOIN or UNION left, :mod:`repro.monitor.placement`) keeps a
    recipe slot: the ``recipe`` a replay built and the consumer and providers it ``chose``."""

    #: the ``reuse_version`` at which the rewrite was last known to hold
    version: int
    plan: PlanNode
    nodes_considered: int
    #: (original node kind, canonical (peer, stream)) per match, in visit
    #: order; each EXISTING node of ``plan`` is one of these originals
    reused_originals: list[tuple[str, tuple[str, str]]]
    #: the database key of every match probe the visit issued
    probes: list[tuple]
    fixed: bool
    chose: tuple[str | None, dict[tuple[str, str], tuple[str, str]]] | None = None
    recipe: DeploymentRecipe | None = None


class ReuseSignatureCache:
    """Interned reuse outcomes keyed by plan signature.

    A rewrite is decided by the answers to the match probes its visit issued,
    so an entry holds while none of them changed: while the Stream Definition
    Database's ``reuse_version`` is the entry's, or while no key in
    ``probes`` was stamped (``stream_db.watched``) after it.  A probe key
    missing from ``watched`` counts as changed.  Provider choices are *not*
    cached -- they are re-ranked on every hit, and only a hit whose peer and
    providers are its recipe slot's stamps that slot's recipe.
    """

    #: bound on interned rewrites, and on the probe keys they watch: each
    #: entry holds a deep-copied plan and its slot recipe, and a long run ingesting
    #: many distinct subscription shapes would otherwise accumulate both without limit
    LIMIT = 1024

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], _CachedRewrite] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple[str, str], stream_db: StreamDefinitionDatabase) -> _CachedRewrite | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        version = stream_db.reuse_version
        if entry.version != version:
            watched = stream_db.watched
            for probe in entry.probes:
                if probe not in watched or watched[probe] > entry.version:
                    return None
            entry.version = version  # nothing it read changed up to now
        return entry

    def put(self, key: tuple[str, str], entry: _CachedRewrite, stream_db: StreamDefinitionDatabase) -> None:
        watched = stream_db.watched
        if (len(self._entries) >= self.LIMIT and key not in self._entries
                or len(watched) + len(entry.probes) > self.LIMIT):
            self._entries.clear()
            watched.clear()
        self._entries[key] = entry
        for probe in entry.probes:
            # a stamp already there is the probe's last change, which the
            # visit saw: raising it would fail older entries for no change
            watched.setdefault(probe, entry.version)

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
        #: (original node kind, canonical (peer, stream)) per match, in visit
        #: order -- the replayable part of ``report.reused``
        self._reused_originals: list[tuple[str, tuple[str, str]]] = []
        #: the database key of every match probe of the current visit
        self._probes: list[tuple] = []
        #: the entry whose slot the last ``apply`` fills, or stamps: it then returns the read-only plan
        self.slot: _CachedRewrite | None = None

    def apply(self, source: PlanNode | PlanTemplate) -> tuple[PlanNode, ReuseReport]:
        """Rewrite ``source`` and report what was reused.

        ``source`` is a plan, which the caller donates, or a template, which
        holds its reuse cache key and is instantiated only when the cache
        cannot answer.
        """
        report = ReuseReport()
        self.slot = None
        cache = self.signature_cache
        template = None if type(source) is PlanNode else source
        if cache is not None:
            key = source.key if template is not None else reuse_cache_key(source)
            entry = cache.get(key, self.stream_db)
            if entry is not None:
                cache.hits += 1
                return self._replay(entry, report), report
            cache.misses += 1
        plan = template.instantiate() if template is not None else source
        self._reused_originals = []
        self._probes = []
        self._fixed = True  # False once the visit leaves a JOIN or a UNION unmatched
        rewritten, _ = self._visit(plan, report)
        if cache is not None:
            cache.put(
                key,
                _CachedRewrite(
                    version=self.stream_db.reuse_version,
                    plan=rewritten.copy(),
                    nodes_considered=report.nodes_considered,
                    reused_originals=self._reused_originals,
                    probes=self._probes,
                    fixed=self._fixed,
                ),
                self.stream_db,
            )
        return rewritten, report

    def _replay(self, entry: _CachedRewrite, report: ReuseReport) -> PlanNode:
        """Rebuild a cached rewrite, re-ranking every provider choice; a slot hit returns its recipe's plan."""
        report.cache_hit = True
        report.nodes_considered = entry.nodes_considered
        report.nodes_reused = len(entry.reused_originals)
        providers: dict[tuple[str, str], tuple[str, str]] = {}
        for kind, original in entry.reused_originals:
            provider = providers[original] = self._select_provider(original, report)
            report.reused.append((kind, f"{original[1]}@{original[0]}", provider[0]))
        if entry.fixed:
            self.slot = entry
            if entry.recipe is not None and entry.chose == (self.consumer_peer, providers):
                return entry.recipe.plan
            entry.chose, entry.recipe = (self.consumer_peer, providers), None
        rewritten = entry.plan.copy()
        for node in rewritten.iter_nodes():
            if node.kind == EXISTING:
                params = node.params
                # provider_* params are the one sanctioned post-construction
                # mutation: they never feed signature details or specs
                params["provider_peer"], params["provider_stream_id"] = providers[params["peer"], params["stream_id"]]
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
            if node.kind == JOIN or node.kind == UNION:
                self._fixed = False
            return node, None

        provider_peer, provider_stream = self._select_provider(match, report)
        report.nodes_reused += 1
        report.reused.append((node.kind, f"{match[1]}@{match[0]}", provider_peer))
        self._reused_originals.append((node.kind, match))
        return PlanNode(
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
        ), match

    def _match_node(
        self,
        node: PlanNode,
        child_matches: list[tuple[str, str] | None],
        report: ReuseReport,
    ) -> tuple[str, str] | None:
        if node.kind == EXISTING:
            return node.params["peer"], node.params["stream_id"]
        if node.kind == ALERTER and not node.children:
            peer = node.params.get("peer")
            if not peer or peer == "local":
                return None
            report.queries_issued += 1
            kind = node.params.get("alerter", "")
            self._probes.append((peer, kind))
            found = self.stream_db.find_alerter_streams(peer, kind)
            if found:
                return found[0].peer_id, found[0].stream_id
            return None
        # an inner operator can only be reused when every operand matched
        if not child_matches or any(match is None for match in child_matches):
            return None
        # a membership-driven source is described under its alerter kind, with
        # the membership stream as operand (StreamDefinitionDatabase.describe_node)
        operator_name = node.params.get("alerter", "alerter") if node.kind == ALERTER else OPERATOR_NAMES.get(node.kind)
        if operator_name is None:
            return None
        report.queries_issued += 1
        spec = operator_spec(node)
        self._probes.append((operator_name, tuple(sorted(child_matches)), spec))
        found = self.stream_db.find_operator_streams(operator_name, spec, child_matches)
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
