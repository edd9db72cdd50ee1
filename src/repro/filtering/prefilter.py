"""preFilter: on-the-fly evaluation of simple conditions on root attributes.

"The preFilter module is an automaton that, for each document t, reads the
first tag of t (so, in particular, the root's attributes).  It tests the
simple conditions which are organized in a hash-table with the attribute
name as key and the condition as value." (Section 4)

Only root attributes are inspected; the rest of the document is never read
by this stage, which is what makes it cheap.

The compiled engine adds two constant-factor refinements:

* conditions are evaluated through their precompiled closures (see
  :class:`~repro.filtering.conditions.SimpleCondition`), and
* the verdict for one ``(attribute, value)`` pair — which condition ids it
  satisfies, as both a sorted tuple and a bitmask — is cached, because alert
  streams draw attribute values from small domains.  Attributes no condition
  mentions are skipped before the cache is even consulted.
"""

from __future__ import annotations

from repro.filtering.conditions import ConditionRegistry
from repro.xmlmodel.tree import Element

#: Bound on the (attribute, value) verdict cache; past it the cache is
#: dropped (unbounded value domains would otherwise leak memory).
MAX_VALUE_CACHE = 65536


def flatten_parts(parts: list[tuple[int, ...]]) -> list[int]:
    """Merge per-attribute satisfied-id tuples into one ascending id list."""
    if not parts:
        return []
    if len(parts) == 1:
        return list(parts[0])
    ids = [condition_id for part in parts for condition_id in part]
    ids.sort()
    return ids


class PreFilter:
    """Evaluates every registered simple condition against a root's attributes."""

    def __init__(self, registry: ConditionRegistry) -> None:
        self._registry = registry
        #: the registry's live attribute table: registrations show up in it
        self._table = registry.by_attribute()
        self._value_cache: dict[tuple[str, str], tuple[int, tuple[int, ...]]] = {}
        self._built_for = -1
        self.documents_processed = 0
        self.conditions_evaluated = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def satisfied_parts(self, item: Element) -> tuple[int, list[tuple[int, ...]]]:
        """Bitmask plus per-attribute satisfied-id tuples (unflattened).

        Only conditions on attributes actually present on the root are
        evaluated -- the hash-table organisation means absent attributes cost
        nothing.  The parts are left unflattened so mask-keyed callers
        (:class:`~repro.filtering.filter.FilterOperator`) can skip building
        the sorted id list entirely when the mask hits their plan cache.
        """
        self.documents_processed += 1
        table = self._table
        cache = self._value_cache
        if self._built_for != len(self._registry):
            # a verdict cached before a condition was registered misses its bit
            cache.clear()
            self._built_for = len(self._registry)
        mask = 0
        parts: list[tuple[int, ...]] = []
        for attribute, value in item.attrib.items():
            conditions = table.get(attribute)
            if conditions is None:
                continue
            entry = cache.get((attribute, value))
            if entry is None:
                self.cache_misses += 1
                entry_mask = 0
                entry_ids: list[int] = []
                for condition_id, condition in conditions:
                    self.conditions_evaluated += 1
                    if condition.holds(value):
                        entry_mask |= 1 << condition_id
                        entry_ids.append(condition_id)
                entry = (entry_mask, tuple(entry_ids))
                if len(cache) >= MAX_VALUE_CACHE:
                    cache.clear()
                cache[(attribute, value)] = entry
            else:
                self.cache_hits += 1
            if entry[0]:
                mask |= entry[0]
                parts.append(entry[1])
        return mask, parts

    def satisfied(self, item: Element) -> tuple[int, list[int]]:
        """Bitmask and ordered id list of the simple conditions ``item`` satisfies."""
        mask, parts = self.satisfied_parts(item)
        return mask, flatten_parts(parts)

    def satisfied_conditions(self, item: Element) -> list[int]:
        """Ordered list of identifiers of the simple conditions ``item`` satisfies."""
        return self.satisfied(item)[1]

    def reset_counters(self) -> None:
        """Reset per-run counters (the value cache itself is kept)."""
        self.documents_processed = 0
        self.conditions_evaluated = 0
        self.cache_hits = 0
        self.cache_misses = 0
