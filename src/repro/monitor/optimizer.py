"""Plan optimisation: algebraic rewriting before reuse and placement.

"In a first step, the subscription manager computes an optimized plan for
the given subscription.  The optimization is performed using algebraic
rewrite rules and heuristics." (Section 3.4)

The rewrites applied here are the ones the paper relies on for the meteo
example: selections are pushed through unions and towards the join side they
refer to (so that filtering happens next to the sources), and redundant
consecutive duplicate-removal operators are collapsed.
"""

from __future__ import annotations

from repro.algebra.plan import DISTINCT, PlanNode
from repro.algebra.rewrite import push_selections_down


def optimize_plan(plan: PlanNode, push_selections: bool = True) -> PlanNode:
    """Return an optimised copy of ``plan``.

    ``push_selections`` can be disabled to obtain the unoptimised baseline
    used by the communication benchmarks (experiment E5).
    """
    optimized = push_selections_down(plan) if push_selections else plan.copy()
    return _collapse_duplicate_distinct(optimized)


def _collapse_duplicate_distinct(node: PlanNode) -> PlanNode:
    node.children = [_collapse_duplicate_distinct(child) for child in node.children]
    if (
        node.kind == DISTINCT
        and len(node.children) == 1
        and node.children[0].kind == DISTINCT
        and node.params.get("criterion") == node.children[0].params.get("criterion")
    ):
        return node.children[0]
    return node
