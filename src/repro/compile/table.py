"""System-wide materialized-expression table (cross-plan CSE).

The table memoises, per published item, the result of each interned
RESTRUCTURE stage signature: when a thousand co-deployed subscriptions share
the same template, the tree is built once and the remaining nine hundred
ninety-nine stages hit the memo.  (Unbatched path only: a burst shares results
through the memo of its :meth:`~repro.compile.group.FilterGroup.batch`.)

The memo holds exactly one entry per signature -- the last item seen.  Local
fan-out is synchronous (a source emits to all its consumers before the next
item exists), so consecutive evaluations of one signature against the same
item are adjacent in time and a single-entry memo captures the entire win
without unbounded growth.  Entries are validated by *item identity*, and the
item is kept strongly referenced by its entry, so a recycled object id can
never alias a stale value.
"""

from __future__ import annotations

from typing import Any

#: Sentinel distinguishing "no memo" from a memoised ``None``/falsy value.
MISS: Any = object()


class MaterializedTable:
    """Single-entry-per-signature memo of stage results, shared system-wide."""

    __slots__ = ("_entries", "hits", "misses")

    def __init__(self) -> None:
        self._entries: dict[str, tuple[Any, Any]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, signature: str, item: Any) -> Any:
        """Memoised value of ``signature`` for ``item``, or :data:`MISS`."""
        entry = self._entries.get(signature)
        if entry is not None and entry[0] is item:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return MISS

    def put(self, signature: str, item: Any, value: Any) -> Any:
        """Memoise ``value`` for ``(signature, item)``; returns ``value``."""
        self._entries[signature] = (item, value)
        return value

    def forget(self, signature: str) -> None:
        """Drop ``signature``'s entry and the item it keeps alive (a twin re-creates it)."""
        self._entries.pop(signature, None)

    @property
    def size(self) -> int:
        return len(self._entries)

    def snapshot(self) -> dict[str, int | float]:
        total = self.hits + self.misses
        return {
            "signatures": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
        }
