"""Operator placement: assigning concrete peers to ``@any`` operators.

Heuristics (matching the plan shown in Figure 4 of the paper):

* alerters run at the monitored peer they observe;
* reused (existing) streams stay at their providing peer;
* filters, restructures, duplicate-removal and group run where their input
  is produced ("place operators such as filters close to the data");
* unions run at one of their inputs' peers (the least-loaded one);
* joins run at one of the two input peers, preferring the side whose peer is
  less loaded (the paper places the meteo join at meteo.com, the in-call side);
* publishers run at the Subscription Manager's peer.

``load`` tracks how many operators each peer has been assigned so far, so
that successive subscriptions spread their work ("trying to balance the
load").  Only a join's or a union's choice reads ``load`` or ``avoid``: a plan
without either places the same under every load and avoid set.
"""

from __future__ import annotations

from repro.algebra.plan import (
    ALERTER,
    EXISTING,
    JOIN,
    PUBLISH,
    UNION,
    PlanNode,
)


def place_plan(
    plan: PlanNode,
    manager_peer: str,
    load: dict[str, int] | None = None,
    avoid: frozenset[str] | set[str] | None = None,
) -> PlanNode:
    """Assign a concrete peer to every node of ``plan`` (modified in place).

    ``avoid`` names peers that must not receive *movable* operators (failed
    peers during recovery redeployment).  Fixed placements -- alerters at
    their monitored peer, existing streams at their provider -- are not
    affected; recovery prunes or defers those before placing.
    """
    load = load if load is not None else {}
    _place(plan, manager_peer, load, frozenset(avoid or ()))
    return plan


def _place(
    node: PlanNode,
    manager_peer: str,
    load: dict[str, int],
    avoid: frozenset[str],
) -> str:
    child_placements = [_place(child, manager_peer, load, avoid) for child in node.children]

    if node.kind == ALERTER:
        peer = node.params.get("peer")
        if peer in (None, "local"):
            peer = node.placement or manager_peer
        node.placement = peer
    elif node.kind == EXISTING:
        node.placement = node.params.get("provider_peer") or node.params.get("peer") or manager_peer
    elif node.kind == PUBLISH:
        node.placement = manager_peer
    elif node.kind == JOIN and len(child_placements) == 2:
        node.placement = node.placement or _less_loaded(
            [child_placements[1], child_placements[0]], load, avoid
        )
    elif node.kind == UNION and child_placements:
        node.placement = node.placement or _less_loaded(
            list(reversed(child_placements)), load, avoid
        )
    else:
        node.placement = node.placement or _first_allowed(
            child_placements, manager_peer, avoid
        )

    load[node.placement] = load.get(node.placement, 0) + 1
    return node.placement


def _first_allowed(
    child_placements: list[str], manager_peer: str, avoid: frozenset[str]
) -> str:
    allowed = [peer for peer in child_placements if peer not in avoid]
    if allowed:
        return allowed[0]
    if child_placements:
        return child_placements[0]
    return manager_peer


def _less_loaded(candidates: list[str], load: dict[str, int], avoid: frozenset[str]) -> str:
    """First candidate with the lowest current load (candidates are in
    preference order, so ties keep the preferred peer).  Candidates in
    ``avoid`` are only used when no alternative exists."""
    allowed = [peer for peer in candidates if peer not in avoid]
    pool = allowed if allowed else candidates
    return min(pool, key=lambda peer: load.get(peer, 0))
