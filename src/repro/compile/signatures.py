"""Interned stage signatures for the plan compiler.

A *stage signature* identifies the exact per-item computation a fused stage
performs, independently of which subscription or plan node it came from.  Two
nodes with equal stage signatures are interchangeable inside a compiled
pipeline: equal RESTRUCTUREs share one
:class:`~repro.compile.table.MaterializedTable` slot, equal FILTERs reading
one stream share one entry of its :class:`~repro.compile.group.FilterGroup`
-- this is what makes cross-plan common-subexpression elimination sound.

Signatures build on the PR5 ``signature_detail`` memo (cached per node, a pure
function of ``params``) and are interned so the materialized table's hit path
compares pointers, not characters.
"""

from __future__ import annotations

from repro.algebra.expr import intern_signature
from repro.algebra.plan import FILTER, RESTRUCTURE, PlanNode, signature_detail


def stage_signature(node: PlanNode) -> str:
    """Interned signature of one fusable stage.

    FILTER details (sorted condition strings) fully determine the predicate.
    RESTRUCTURE details fingerprint only the template skeleton, so the binding
    variable must be appended: two restructures sharing a template but binding
    different loop variables compute different trees from tuple items.
    """
    detail = signature_detail(node)
    if node.kind == FILTER:
        return intern_signature(f"filter:{detail}")
    if node.kind == RESTRUCTURE:
        var = node.params.get("var") or "item"
        return intern_signature(f"restructure:{detail}:{var}")
    raise ValueError(f"plan node kind {node.kind!r} has no stage signature")
