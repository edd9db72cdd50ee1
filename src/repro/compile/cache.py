"""Cache of compiled pipeline programs, keyed by their stage signatures.

A stage's program depends only on its stage signature, so a segment compiles
once per system: every deployment of the same shape -- a twin subscription,
a make-before-break or recovery redeploy -- takes the programs already built.
"""

from __future__ import annotations

from typing import Any

#: Program cache key: the interned stage signatures of the segment.
ProgramKey = tuple[str, ...]


class CompiledPlanCache:
    """Interned compiled programs, cleared outright when full."""

    #: bound on retained programs (each holds its stages' closures): a long
    #: run over many distinct shapes would otherwise accumulate them without limit
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
        if len(self._entries) >= self.LIMIT:
            self._entries.clear()
        self._entries[key] = program

    def snapshot(self) -> dict[str, int | float]:
        total = self.hits + self.misses
        return {
            "programs": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
        }
