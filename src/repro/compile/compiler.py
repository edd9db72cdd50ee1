"""Produce/consume plan compiler: fused stages, fallback rules, CSE.

:class:`PlanCompiler` walks a placed plan tree and partitions it into maximal
*linear segments* of co-located fusable nodes: a FILTER (simple *or*
tree-pattern), which always heads its segment, and the RESTRUCTUREs above
it.  Each segment compiles to a tuple of :class:`CompiledStage` that a
:class:`~repro.compile.pipeline.CompiledPipeline` executes in a single call
frame per item -- no intermediate ``Stream.emit`` hops, no per-operator
virtual dispatch.  A FILTER head carries no closure: every FILTER reading
one stream is decided by that stream's
:class:`~repro.compile.group.FilterGroup`, which the compiler keeps per
stream, and the pipeline resumes after the head for the items that matched.

Every node kind that is not fusable carries an explicit fallback reason
(Kontra-style rule set) and runs as an
:class:`~repro.algebra.operators.Operator`: stateful operators keep their
window/cadence/history machinery, multi-input merges need the stream-level
EOS accounting, and segment chains split at remote boundaries so every
cross-peer hop stays a real channel.
"""

from __future__ import annotations

from typing import Any, Callable

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
)
from repro.algebra.template import get_binding
from repro.streams.stream import Stream

from .cache import CompiledPlanCache
from .group import FilterGroup
from .signatures import stage_signature
from .stats import CompileStats
from .table import MISS, MaterializedTable

#: Kinds the compiler can fuse into a pipeline stage.
FUSABLE_KINDS = (FILTER, RESTRUCTURE)

#: Static fallback rules: operator kind -> why it runs as an ``Operator``.
FALLBACK_REASONS = {
    JOIN: "stateful-join-window",
    GROUP: "stateful-group-cadence",
    DISTINCT: "stateful-distinct-history",
    UNION: "multi-input-merge",
    ALERTER: "source-node",
    EXISTING: "reused-stream-reference",
    PUBLISH: "delivery-root",
}

#: Kinds that are plan *sources* rather than operators; hitting one ends a
#: chain naturally and is not worth reporting as a "fallback".
_SOURCE_KINDS = (ALERTER, EXISTING)


class CompiledStage:
    """One fused stage: ``apply(item) -> item`` in a single call frame.

    ``apply_many(batch) -> batch`` is the vectorised entry.  A FILTER stage
    has neither: it names the signature under which its pipeline joins the
    :class:`~repro.compile.group.FilterGroup` of its input stream.
    """

    __slots__ = ("kind", "signature", "apply", "apply_many")

    def __init__(
        self,
        kind: str,
        signature: str,
        apply: Callable[[Any], Any] | None = None,
        apply_many: Callable[[Any], list] | None = None,
    ) -> None:
        self.kind = kind
        self.signature = signature
        self.apply = apply
        self.apply_many = apply_many

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledStage({self.kind!r}, {self.signature!r})"


class PlanCompiler:
    """Partitions plans into fusable segments and compiles them to stages."""

    def __init__(
        self, table: MaterializedTable, cache: CompiledPlanCache, stats: CompileStats
    ) -> None:
        self.table = table
        self.cache = cache
        self.stats = stats
        #: the one shared filter of every stream feeding FILTER-headed segments
        self.groups: dict[Stream, FilterGroup] = {}

    # -- fallback rules ------------------------------------------------------

    def fallback_reason(self, node: PlanNode) -> str | None:
        """``None`` when ``node`` fuses; otherwise why it runs as an ``Operator``.

        FILTER and RESTRUCTURE have no other engine to fall back to, so a
        malformed one raises instead.
        """
        if node.kind not in FUSABLE_KINDS:
            return FALLBACK_REASONS[node.kind]
        required = "subscription" if node.kind == FILTER else "template"
        if len(node.children) != 1 or node.params.get(required) is None:
            raise ValueError(
                f"malformed {node.kind} node: needs exactly one input and a "
                f"{required!r} parameter, got {len(node.children)} input(s)"
            )
        return None

    # -- segment analysis ----------------------------------------------------

    def plan_segments(self, plan: PlanNode) -> dict[int, list[PlanNode]]:
        """Maximal fusable segments of ``plan``: ``id(tail node) -> chain``.

        Each chain is head-first (closest to the source), every node in it is
        fusable, unary, and placed on the same peer as the tail, and a FILTER
        can only be its head.  Keying by the *tail* node's identity lets the
        deployer intercept exactly the node whose output the parent consumes,
        deploying the whole chain as one :class:`CompiledPipeline` and
        recursing below the head.
        """
        segments: dict[int, list[PlanNode]] = {}
        self._analyze(plan, segments)
        return segments

    def _analyze(self, node: PlanNode, segments: dict[int, list[PlanNode]]) -> None:
        reason = self.fallback_reason(node)
        if reason is not None:
            if node.kind not in _SOURCE_KINDS:
                self.stats.record_fallback(node.kind, reason)
            for child in node.children:
                self._analyze(child, segments)
            return
        # ``node`` is a fusable tail; extend the chain towards the source
        # while the single input is fusable and co-located.  A FILTER ends
        # it: its input stream's group evaluates it, never a stage before it.
        chain = [node]
        cursor = node
        while cursor.kind != FILTER:
            below = cursor.children[0]
            if self.fallback_reason(below) is not None:
                # the recursion below the head re-visits this child and
                # records its fallback reason exactly once
                break
            if below.placement != cursor.placement:
                # fusable but on another peer: the chain splits here and the
                # remote hop stays a real channel
                break
            chain.append(below)
            cursor = below
        chain.reverse()  # head (source side) first
        segments[id(node)] = chain
        self.stats.record_segment(len(chain))
        # recurse below the head of the chain (its children were not analyzed
        # above; a remote-split child is a fresh analysis root)
        for child in chain[0].children:
            self._analyze(child, segments)

    # -- compilation ---------------------------------------------------------

    def compile_segment(self, chain: list[PlanNode], epoch: int) -> tuple[CompiledStage, ...]:
        """Compile a head-first chain into its stage tuple, cached per epoch."""
        signatures = tuple(stage_signature(node) for node in chain)
        key = (signatures, epoch)
        program = self.cache.get(key)
        if program is None:
            program = tuple(
                CompiledStage(FILTER, signature) if node.kind == FILTER else self._build_restructure(node, signature)
                for node, signature in zip(chain, signatures)
            )
            self.cache.put(key, program)
        return program

    def _build_restructure(self, node: PlanNode, signature: str) -> CompiledStage:
        table = self.table
        template = node.params["template"]
        var = node.params.get("var")
        instantiate = template.instantiate

        def apply(item: Any) -> Any:
            # identical templates across co-deployed subscriptions build the
            # output tree once per item; sharing the resulting Element is
            # sound because receivers never mutate delivered items
            out = table.get(signature, item)
            if out is MISS:
                out = table.put(signature, item, instantiate(get_binding(item, var)))
            return out

        def apply_many(batch: Any) -> list:
            # twins share a burst's result through the memo of the group
            # dispatch that carries it (see CompiledPipeline), not the table
            return [instantiate(get_binding(item, var)) for item in batch]

        return CompiledStage(RESTRUCTURE, signature, apply, apply_many)

    # -- shared filters ------------------------------------------------------

    def filter_group(self, stream: Stream, host: Any) -> FilterGroup:
        """The group of ``stream``, created and subscribed on first use, dropped
        with its last member.  ``host`` is the consuming peer: intensional content
        is materialised through its *current* ``service_registry``."""
        group = self.groups.get(stream)
        if group is None:
            group = self.groups[stream] = FilterGroup(
                stream, lambda: host.service_registry, self.stats, lambda: self.groups.pop(stream)
            )
        return group
