"""AESFilter: the Atomic Event Set hash-tree of [15], with bitmask subsumption.

Each subscription contributes the *ordered* sequence of its simple-condition
identifiers.  The hash-tree stores these sequences by shared prefix: a node's
hash table maps a condition identifier to a child node; a cell is *marked*
with the subscriptions for which that condition is the last simple condition.

Given the ordered list of conditions satisfied by a document (produced by
the preFilter), matching walks the tree and collects the markings of every
subscription whose full condition sequence is contained in the satisfied
list.  The cost depends on the number of satisfied conditions, not on the
total number of subscriptions, which is why the organisation "scales with
the number of subscriptions".

Compiled-engine refinements over the textbook structure:

* every condition sequence is also an **int bitmask** (bit ``i`` set for
  condition id ``i``).  Two documents satisfying the same condition set
  always match the same subscriptions, so ``FilterOperator`` caches the
  outcome of :meth:`AESFilter.match` per satisfied-mask;
* because the mask is that cache's key, it is authoritative: each tree node
  stores the mask of its path and a marking is reported only when
  ``path_mask & satisfied_mask == path_mask`` (one machine-int AND).  For a
  well-formed call the walk already guarantees this — it only descends
  satisfied edges — but the clamp keeps an inconsistent ``(ids, mask)``
  pair passed by a caller from poisoning the entry cached for that mask;
* the walk is **iterative** (explicit stack), so deep condition sequences
  never hit Python's recursion limit and no per-level call frames are paid;
* :meth:`AESFilter.remove_subscription` unmarks a cell and prunes the nodes
  left empty: the tree is always exactly the prefixes of the live sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.filtering.conditions import ConditionRegistry, FilterSubscription


@dataclass
class AESMatch:
    """Result of matching one document's satisfied conditions."""

    simple_matches: list[str] = field(default_factory=list)
    active_complex: list[str] = field(default_factory=list)

    def all_ids(self) -> list[str]:
        return self.simple_matches + self.active_complex


class _HashTreeNode:
    __slots__ = ("table", "simple_markings", "complex_markings", "path_mask")

    def __init__(self, path_mask: int = 0) -> None:
        self.table: dict[int, _HashTreeNode] = {}
        # subscriptions whose *last* simple condition is the edge leading here
        self.simple_markings: list[str] = []
        self.complex_markings: list[str] = []
        # bitmask of the condition ids along the path from the root to here
        self.path_mask = path_mask


def _markings(node: _HashTreeNode, subscription: FilterSubscription) -> list[str]:
    """The list of ``node`` that ``subscription`` is marked in."""
    return node.complex_markings if subscription.is_complex else node.simple_markings


class AESFilter:
    """Hash-tree matcher for conjunctions of simple conditions."""

    def __init__(self, registry: ConditionRegistry) -> None:
        self._registry = registry
        # subscriptions with no simple conditions are marked at the root
        self._root = _HashTreeNode()
        # subscription id -> its condition-sequence bitmask
        self._masks: dict[str, int] = {}
        # condition id -> tree nodes entered through it (absent: no live user)
        self._edge_counts: dict[int, int] = {}
        self.subscription_count = 0
        self.nodes_visited = 0

    # -- construction / maintenance ------------------------------------------------

    def add_subscription(self, subscription: FilterSubscription) -> None:
        """Insert one subscription's ordered simple-condition sequence."""
        condition_ids = subscription.condition_ids(self._registry)
        self.subscription_count += 1
        mask = 0
        for condition_id in condition_ids:
            mask |= 1 << condition_id
        self._masks[subscription.sub_id] = mask
        edge_counts = self._edge_counts
        node = self._root
        for condition_id in condition_ids:
            child = node.table.get(condition_id)
            if child is None:
                child = _HashTreeNode(node.path_mask | (1 << condition_id))
                node.table[condition_id] = child
                edge_counts[condition_id] = edge_counts.get(condition_id, 0) + 1
            node = child
        _markings(node, subscription).append(subscription.sub_id)

    def remove_subscription(self, subscription: FilterSubscription) -> None:
        """Unmark ``subscription`` and prune the tree nodes it leaves empty."""
        del self._masks[subscription.sub_id]
        self.subscription_count -= 1
        condition_ids = subscription.condition_ids(self._registry)
        path = [self._root]
        for condition_id in condition_ids:
            path.append(path[-1].table[condition_id])
        _markings(path[-1], subscription).remove(subscription.sub_id)
        edge_counts = self._edge_counts
        for depth in range(len(condition_ids), 0, -1):
            node = path[depth]
            if node.table or node.simple_markings or node.complex_markings:
                break
            condition_id = condition_ids[depth - 1]
            del path[depth - 1].table[condition_id]
            edge_counts[condition_id] -= 1
            if not edge_counts[condition_id]:
                del edge_counts[condition_id]

    @property
    def live_conditions(self) -> int:
        """Number of registered conditions some live subscription still uses."""
        return len(self._edge_counts)

    def add_subscriptions(self, subscriptions: list[FilterSubscription]) -> None:
        for subscription in subscriptions:
            self.add_subscription(subscription)

    def mask_of(self, sub_id: str) -> int:
        """The condition-sequence bitmask registered for ``sub_id``."""
        return self._masks[sub_id]

    # -- matching ----------------------------------------------------------------------

    def match(
        self, satisfied_conditions: list[int], satisfied_mask: int | None = None
    ) -> AESMatch:
        """Find subscriptions whose condition sequence ⊆ ``satisfied_conditions``.

        ``satisfied_conditions`` must be sorted ascending (the preFilter
        guarantees this).  ``satisfied_mask`` is the same set as a bitmask;
        it is derived from the list when not supplied.
        """
        if satisfied_mask is None:
            satisfied_mask = 0
            for condition_id in satisfied_conditions:
                satisfied_mask |= 1 << condition_id
        simple = list(self._root.simple_markings)
        complex_ = list(self._root.complex_markings)
        satisfied = satisfied_conditions
        n = len(satisfied)
        visited = 0
        # Iterative prefix-shared walk: (node, index into `satisfied` from
        # which the node's children may still be extended).
        stack: list[tuple[_HashTreeNode, int]] = [(self._root, 0)]
        pop = stack.pop
        push = stack.append
        while stack:
            node, start = pop()
            table = node.table
            for index in range(start, n):
                child = table.get(satisfied[index])
                if child is None:
                    continue
                visited += 1
                # always true for consistent (ids, mask) inputs; clamps the
                # result (cached by mask upstream) when they are inconsistent
                path_mask = child.path_mask
                if path_mask & satisfied_mask == path_mask:
                    if child.simple_markings:
                        simple.extend(child.simple_markings)
                    if child.complex_markings:
                        complex_.extend(child.complex_markings)
                if child.table:
                    push((child, index + 1))
        self.nodes_visited += visited
        return AESMatch(simple, complex_)

    # -- introspection -------------------------------------------------------------------

    def node_count(self) -> int:
        """Total number of hash-tree nodes (measures prefix sharing)."""
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.table.values())
        return total

    def reset_counters(self) -> None:
        """Reset per-run counters."""
        self.nodes_visited = 0
