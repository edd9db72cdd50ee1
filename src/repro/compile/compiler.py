"""Produce/consume plan compiler: fused stages, fallback rules, CSE.

:class:`PlanCompiler` walks a placed plan tree and partitions it into maximal
*linear segments* of co-located fusable nodes: FILTER (simple *and*
tree-pattern) and RESTRUCTURE.  Each segment compiles to a tuple of
:class:`CompiledStage` closures that a
:class:`~repro.compile.pipeline.CompiledPipeline` executes in a single call
frame per item -- no intermediate ``Stream.emit`` hops, no per-operator
virtual dispatch.  Every stage also carries an ``apply_many`` entry point
evaluating the fused computation over a whole batch with one materialized-
table probe per batch (alerter bursts and channel deliveries arrive as
batches).

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
from repro.algebra.expr import intern_signature
from repro.algebra.template import get_binding
from repro.filtering.conditions import compile_simple_predicate
from repro.filtering.yfilter import compile_tree_predicate
from repro.xmlmodel.axml import ServiceRegistry

from .cache import CompiledPlanCache
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
    """One fused stage: ``apply(item) -> item | None`` in a single call frame.

    ``apply_many(batch) -> batch`` is the vectorized entry: the same fused
    computation over a whole batch, memoised per *batch-list identity* so a
    thousand co-deployed twins of this stage probe the materialized table
    once per batch instead of once per item.  Sound because
    ``Stream.emit_many`` hands every batch subscriber the same list object
    and emitters never mutate a batch after handing it over (the same
    convention that makes per-item identity memoisation sound).
    """

    __slots__ = ("kind", "signature", "apply", "apply_many")

    def __init__(
        self,
        kind: str,
        signature: str,
        apply: Callable[[Any], Any],
        apply_many: Callable[[Any], list],
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
        self,
        table: MaterializedTable,
        cache: CompiledPlanCache,
        stats: CompileStats,
        registry_for: Callable[[str], ServiceRegistry | None] | None = None,
    ) -> None:
        self.table = table
        self.cache = cache
        self.stats = stats
        #: ``peer_id -> ServiceRegistry`` resolver for tree-pattern stages.
        #: Resolved lazily *per item*, never captured at compile time:
        #: compiled programs outlive peer objects in the plan cache, and a
        #: departed-then-rejoined peer carries a fresh registry.
        self.registry_for = registry_for

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
        fusable, unary, and placed on the same peer as the tail.  Keying by
        the *tail* node's identity lets the deployer intercept exactly the
        node whose output the parent consumes, deploying the whole chain as
        one :class:`CompiledPipeline` and recursing below the head.
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
        # while the single input is fusable and co-located.
        chain = [node]
        cursor = node
        while True:
            below = cursor.children[0]
            if self.fallback_reason(below) is not None:
                # the recursion below the head re-visits this child and
                # records its fallback reason exactly once
                break
            if below.placement != cursor.placement:
                # fusable but on another peer: the chain splits here and the
                # remote hop stays a real channel
                self.stats.record_remote_split()
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
                self._build_stage(node, signature)
                for node, signature in zip(chain, signatures)
            )
            self.cache.put(key, program)
        return program

    def _build_stage(self, node: PlanNode, signature: str) -> CompiledStage:
        table = self.table
        #: batch results memoise under a distinct interned key so a batch
        #: entry never evicts the per-item entry twin stages still probe
        many_signature = intern_signature("many:" + signature)
        if node.kind == FILTER:
            subscription = node.params["subscription"]
            if subscription.complex_queries:
                registry_for = self.registry_for
                if registry_for is None:
                    predicate = compile_tree_predicate(subscription)
                else:
                    placement = node.placement

                    def resolve() -> ServiceRegistry | None:
                        return registry_for(placement)

                    predicate = compile_tree_predicate(subscription, resolve)
                # a lazy-DFA walk always dwarfs the table probe: memoise
                # unconditionally so signature-twins share one verdict
                memoise = True
            else:
                predicate = compile_simple_predicate(subscription)
                # memoise only when the verdict is worth sharing: computed
                # conditions re-parse attribute numbers and >=3 conditions
                # mean several closure calls, while 1-2 plain comparisons are
                # cheaper than the table probe itself
                memoise = bool(subscription.computed) or len(subscription.simple) >= 3
            if memoise:

                def apply(item: Any) -> Any:
                    verdict = table.get(signature, item)
                    if verdict is MISS:
                        verdict = table.put(signature, item, predicate(item))
                    return item if verdict else None

                def apply_many(batch: Any) -> list:
                    survivors = table.get(many_signature, batch)
                    if survivors is MISS:
                        survivors = []
                        for item in batch:
                            verdict = table.get(signature, item)
                            if verdict is MISS:
                                verdict = table.put(signature, item, predicate(item))
                            if verdict:
                                survivors.append(item)
                        table.put(many_signature, batch, survivors)
                    return survivors

            else:

                def apply(item: Any) -> Any:
                    return item if predicate(item) else None

                def apply_many(batch: Any) -> list:
                    return [item for item in batch if predicate(item)]

            return CompiledStage(FILTER, signature, apply, apply_many)
        if node.kind == RESTRUCTURE:
            template = node.params["template"]
            var = node.params.get("var")
            instantiate = template.instantiate

            def apply(item: Any) -> Any:
                # identical templates across co-deployed subscriptions build
                # the output tree once per item; sharing the resulting
                # Element is sound because receivers never mutate delivered
                # items
                out = table.get(signature, item)
                if out is MISS:
                    out = table.put(signature, item, instantiate(get_binding(item, var)))
                return out

            def apply_many(batch: Any) -> list:
                results = table.get(many_signature, batch)
                if results is MISS:
                    results = []
                    for item in batch:
                        out = table.get(signature, item)
                        if out is MISS:
                            out = table.put(
                                signature, item, instantiate(get_binding(item, var))
                            )
                        results.append(out)
                    table.put(many_signature, batch, results)
                return results

            return CompiledStage(RESTRUCTURE, signature, apply, apply_many)
        raise ValueError(f"cannot build a compiled stage for kind {node.kind!r}")
