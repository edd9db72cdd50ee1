"""CompiledPipeline: the runtime object executing one fused plan segment.

A pipeline owns the fused stages of one deployed segment plus one *boundary*
per stage -- the output stream, its publication channel and a liveness
snapshot.  Per item the pipeline runs stage after stage inline (one call
frame, no ``Stream.emit`` between co-located stages) and only writes a
boundary through when something outside the pipeline actually consumes it.
A FILTER head is not run here: the input stream's ``FilterGroup`` decides it
for all its members at once and entry 0 *resumes after the head*, at
boundary 0, under the same rules:

* the tail boundary always emits to its stream (the parent operator /
  publisher consumes it);
* an intermediate boundary emits when its channel has remote subscribers or
  its stream gained subscribers beyond the pipeline's own continuation
  (stream reuse, replicas, test taps) -- the continuation then carries on, so
  each item is processed by exactly one path;
* a *dark* intermediate boundary (no external consumer) is skipped entirely.
  This is network-invisible: a channel without subscribers has no forwarder
  on its stream, so skipping the emit produces byte-identical traffic.

EOS ordering matches :class:`~repro.algebra.operators.Operator` exactly: each
stage entry closes its own boundary on EOS, which cascades to the next entry
through the boundary stream just as ``Operator.on_close`` cascades.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.streams.item import EOS
from repro.streams.stream import Stream

from .compiler import CompiledStage
from .group import FilterGroup
from .stats import CompileStats


class _Boundary:
    """Per-stage output: stream + channel + external-consumer watches."""

    __slots__ = ("stream", "channel", "watches")

    def __init__(self, stream: Stream, channel: Any) -> None:
        self.stream = stream
        self.channel = channel
        #: tuple of (stream, baseline subscriber count); a count above the baseline means an
        #: external consumer (reuse, a replica, a channel's forwarder, a test tap) attached later
        self.watches: tuple[tuple[Stream, int], ...] = ()

    def is_live(self) -> bool:
        channel = self.channel
        if channel is not None and channel.subscribers:
            return True
        for stream, baseline in self.watches:
            if stream.subscriber_count > baseline:
                return True
        return False


class CompiledPipeline:
    """Fused execution of one plan segment, installed by the deployer."""

    name = "CompiledPipeline"
    stateless = True

    __slots__ = (
        "stages",
        "boundaries",
        "sub_id",
        "peer_id",
        "items_out",
        "_items_in",
        "_group",
        "_entries",
        "_last",
        "stats",
    )

    def __init__(
        self,
        stages: tuple[CompiledStage, ...],
        sub_id: str,
        peer_id: str,
        stats: CompileStats,
    ) -> None:
        self.stages = stages
        self.boundaries: list[_Boundary] = []
        self.sub_id = sub_id
        self.peer_id = peer_id
        self.items_out = 0
        self._items_in = 0
        #: the group deciding a FILTER head, while entry 0 is joined to it
        self._group: FilterGroup | None = None
        #: per-stage unsubscribers for the entry callbacks; None once detached
        self._entries: list[Callable[[], None] | None] = [None] * len(stages)
        self._last = len(stages) - 1
        self.stats = stats

    @property
    def items_in(self) -> int:
        """Items offered to the segment, whether or not its head let them pass
        (under a FILTER head: the group's item counter, relative to the join)."""
        group = self._group
        return self._items_in + (group.items if group is not None else 0)

    # -- wiring (called by the deployer, in deployment order) ---------------

    def add_boundary(self, stream: Stream, channel: Any) -> None:
        self.boundaries.append(_Boundary(stream, channel))

    def seal_boundary(self, index: int, watches: tuple[tuple[Stream, int], ...]) -> None:
        self.boundaries[index].watches = watches

    def make_entry(self, index: int) -> Callable[[Any], None]:
        """Deliver callback consuming stage ``index``'s input stream.

        Entry 0 consumes the segment's source (under a FILTER head as a
        member of the source's :class:`FilterGroup`: it sees the matched items
        only); entry ``i > 0`` is the continuation subscribed to boundary
        ``i - 1`` and only runs when that boundary was written through (live)
        or fed externally (orphan adoption replays, reuse providers).
        ``deliver.batch`` takes a burst and, from a group, its dispatch memo.
        """

        def deliver(item: Any, _i: int = index) -> None:
            if item is EOS:
                # mirror Operator.on_close: input ended -> close own output,
                # cascading stage by stage through the boundary streams
                self.boundaries[_i].stream.close()
                return
            if _i == 0 and self._group is None:
                self._items_in += 1
            self._run_from(_i, item)

        def deliver_batch(items: Any, memo: dict | None = None, _i: int = index) -> None:
            if _i == 0 and self._group is None:
                self._items_in += len(items)
            self._run_batch_from(_i, items, {} if memo is None else memo)

        deliver.batch = deliver_batch  # type: ignore[attr-defined]
        return deliver

    def attach_entry(self, index: int, unsubscribe: Callable[[], None], group: FilterGroup | None = None) -> None:
        """Record entry ``index``'s unsubscriber -- for a FILTER head the
        ``leave`` of the ``group`` entry 0 joined instead of subscribing."""
        self._entries[index] = unsubscribe
        if group is not None:
            self._group = group
            self._items_in -= group.items  # items_in adds group.items back

    def detach_stage(self, index: int) -> None:
        unsubscribe = self._entries[index]
        if unsubscribe is not None:
            self._entries[index] = None
            unsubscribe()
            if index == 0 and self._group is not None:
                self._items_in += self._group.items
                self._group = None

    @property
    def detached(self) -> bool:
        return not any(self._entries)

    # -- execution -----------------------------------------------------------

    def _run_from(self, i: int, item: Any) -> None:
        stages, boundaries, stats, last = self.stages, self.boundaries, self.stats, self._last
        apply = stages[i].apply
        while True:
            if apply is not None:  # a FILTER head has none: its group let ``item`` pass
                stats.item_invocations += 1
                item = apply(item)
            boundary = boundaries[i]
            if i == last:
                self.items_out += 1
                boundary.stream.emit(item)
                return
            if self._entries[i + 1] is None or boundary.is_live():
                # write through: either an external consumer is attached (our
                # continuation on this boundary resumes the remaining stages,
                # so processing stays single-path), or the downstream stages
                # were torn down while this boundary stream survives for
                # reuse consumers -- exactly an upstream operator emitting
                # after its downstream operator detached
                boundary.stream.emit(item)
                return
            i += 1
            apply = stages[i].apply

    def _run_batch_from(self, i: int, batch: Any, memo: dict) -> None:
        stages, boundaries, stats, last = self.stages, self.boundaries, self.stats, self._last
        while True:
            stage = stages[i]
            if stage.apply_many is not None:
                stats.batch_invocations += 1
                stats.batch_items += len(batch)
                # twins of one group dispatch share each stage's result
                key = (stage.signature, id(batch))
                if key in memo:
                    batch = memo[key]
                else:
                    batch = memo[key] = stage.apply_many(batch)
            boundary = boundaries[i]
            if i == last:
                self.items_out += len(batch)
                boundary.stream.emit_trusted(batch)
                return
            if self._entries[i + 1] is None or boundary.is_live():
                boundary.stream.emit_trusted(batch)
                return
            i += 1

    # -- observability -------------------------------------------------------

    def describe(self) -> dict:
        return {
            "sub_id": self.sub_id,
            "peer": self.peer_id,
            "stages": [stage.signature for stage in self.stages],
            "items_in": self.items_in,
            "items_out": self.items_out,
            "detached": self.detached,
        }

    def __repr__(self) -> str:
        return (
            f"CompiledPipeline(sub={self.sub_id!r}, peer={self.peer_id!r}, "
            f"stages={len(self.stages)})"
        )
