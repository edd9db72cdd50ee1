"""Cache of compiled pipeline programs, keyed by stage signatures + epoch.

Recovery and make-before-break redeployments bump the deployment epoch; keying
compiled programs on it guarantees a replacement deployment never inherits a
program whose stages were built against the failed epoch's assumptions, while
steady-state redeployments of the same plan shape compile exactly once.
"""

from __future__ import annotations

from typing import Any

#: Program cache key: (interned stage signatures of the segment, epoch).
ProgramKey = tuple[tuple[str, ...], int]


class CompiledPlanCache:
    """Interned compiled programs, epoch-invalidated.

    Mirrors the reuse layer's :class:`ReuseSignatureCache` eviction policy:
    bounded, dropping entries from dead epochs first and clearing outright
    only when live entries alone exceed the bound.
    """

    #: bound on retained programs (each holds its stages' closures): long
    #: churny runs would otherwise accumulate epoch-stale ones without limit
    LIMIT = 512

    def __init__(self) -> None:
        self._entries: dict[ProgramKey, tuple[Any, ...]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: ProgramKey) -> tuple[Any, ...] | None:
        program = self._entries.get(key)
        if program is None:
            self.misses += 1
            return None
        self.hits += 1
        return program

    def put(self, key: ProgramKey, program: tuple[Any, ...]) -> None:
        if len(self._entries) >= self.LIMIT and key not in self._entries:
            epoch = key[1]
            stale = [k for k in self._entries if k[1] != epoch]
            for k in stale:
                del self._entries[k]
            if len(self._entries) >= self.LIMIT:
                self._entries.clear()
        self._entries[key] = program

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> dict[str, int | float]:
        total = self.hits + self.misses
        return {
            "programs": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
        }
