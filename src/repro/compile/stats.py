"""Counters describing what the plan compiler did and why it fell back."""

from __future__ import annotations


class CompileStats:
    """Cumulative compiler observability, surfaced via ``handle.stats()``."""

    __slots__ = (
        "segments_fused",
        "stages_fused",
        "fallbacks",
        "ticks",
        "item_invocations",
        "batch_invocations",
        "batch_items",
    )

    def __init__(self) -> None:
        self.segments_fused = 0
        self.stages_fused = 0
        #: operator kind -> {reason: count}
        self.fallbacks: dict[str, dict[str, int]] = {}
        self.ticks = 0
        # stage-invocation split: how much of the fused work ran through the
        # vectorized ``apply_many`` path vs the per-item ``apply`` path
        self.item_invocations = 0
        self.batch_invocations = 0
        self.batch_items = 0

    def record_plan(self, segments: int, stages: int, fallbacks: tuple[tuple[str, str], ...]) -> None:
        """One deployment: its fused segments and stages, and the ``(kind,
        reason)`` of each operator that fell back."""
        self.segments_fused += segments
        self.stages_fused += stages
        for kind, reason in fallbacks:
            bucket = self.fallbacks.setdefault(kind, {})
            bucket[reason] = bucket.get(reason, 0) + 1

    def record_tick(self) -> None:
        self.ticks += 1

    def snapshot(self) -> dict:
        return {
            "segments_fused": self.segments_fused,
            "stages_fused": self.stages_fused,
            # reasons are sorted alongside kinds so snapshots (and the
            # reports/tests built on them) are deterministic across runs
            # regardless of first-recorded order
            "fallbacks": {
                kind: dict(sorted(reasons.items()))
                for kind, reasons in sorted(self.fallbacks.items())
            },
            "ticks": self.ticks,
            "stage_invocations": {
                "item": self.item_invocations,
                "batch": self.batch_invocations,
                "batch_items": self.batch_items,
            },
        }
