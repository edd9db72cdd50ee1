"""FilterGroup: the paper's shared filter under the compiled pipelines.

Section 4 evaluates *all* subscriptions on an item at once: preFilter on the
root attributes, AES hash tree over the satisfied conditions, YFilter pruned
to the still-active tree patterns.  A :class:`FilterGroup` is that filter for
one local stream: its single subscriber on behalf of every FILTER-headed
segment reading it.  It runs each item through one ``FilterOperator`` and
calls only the matching members' continuations, which resume their pipeline
*after* the head stage: a subscription that does not match costs nothing.

The index holds one entry per distinct interned FILTER stage signature; twins
share it as slots of its bucket.  Members run in registration order, at the
group's position among the stream's subscribers (the first member's).
"""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter
from typing import Any, Callable

from repro.filtering.conditions import FilterSubscription
from repro.filtering.filter import FilterOperator
from repro.streams.item import EOS
from repro.streams.stream import Stream
from repro.xmlmodel.axml import ServiceRegistry

from .stats import CompileStats

#: Bound on the cached member orders (cleared wholesale when full).
MAX_ORDERS = 4096


class _Member:
    """One joined pipeline: where it stands and how to resume it."""

    __slots__ = ("group", "ordinal", "signature", "deliver", "batch")

    def __init__(self, group: "FilterGroup", ordinal: int, signature: str, deliver: Any) -> None:
        #: None once the member left: a dispatch in flight skips it
        self.group: FilterGroup | None = group
        self.ordinal = ordinal
        self.signature = signature
        self.deliver = deliver
        self.batch = deliver.batch

    def leave(self) -> None:
        group, self.group = self.group, None
        if group is not None:
            group._remove(self)


class FilterGroup:
    """One shared filter for every FILTER-headed segment reading ``stream``."""

    def __init__(
        self,
        stream: Stream,
        registry: Callable[[], ServiceRegistry | None],
        stats: CompileStats,
        on_empty: Callable[[], Any],
    ) -> None:
        #: intensional content is materialised through ``registry()``, at
        #: most once per item and only while a tree pattern is still active
        self.index = FilterOperator(service_registry=registry)
        #: items offered so far; pipelines derive ``items_in`` from it
        self.items = 0
        self._stats = stats
        self._on_empty = on_empty
        #: signature -> {ordinal: member}, i.e. twins in registration order
        self._buckets: dict[str, dict[int, _Member]] = {}
        self._next_ordinal = 0
        #: matched signatures -> their members by ordinal, dropped on every
        #: join and leave.  The index hands out one tuple per satisfied-mask
        #: while nothing item-dependent matched: a repeat is a single probe.
        self._orders: dict[tuple[str, ...], tuple[_Member, ...]] = {}
        self._unsubscribe = stream.subscribe(self)

    # -- membership ----------------------------------------------------------

    def join(
        self, signature: str, subscription: FilterSubscription, deliver: Callable[[Any], None]
    ) -> Callable[[], None]:
        """Add a member under its FILTER stage ``signature``; returns ``leave``.

        ``deliver(item)`` receives the items ``subscription`` matches, and
        EOS; ``deliver.batch(items, memo)`` a burst's survivors (one list per
        signature, shared by its twins) and the memo of that dispatch.  Only
        a new signature registers with the index.
        """
        bucket = self._buckets.get(signature)
        if bucket is None:
            bucket = self._buckets[signature] = {}
            self.index.add_subscription(replace(subscription, sub_id=signature))
        member = bucket[self._next_ordinal] = _Member(self, self._next_ordinal, signature, deliver)
        self._next_ordinal += 1
        self._orders.clear()
        return member.leave

    def _remove(self, member: _Member) -> None:
        bucket = self._buckets[member.signature]
        del bucket[member.ordinal]
        self._orders.clear()
        if not bucket:
            del self._buckets[member.signature]
            self.index.remove_subscription(member.signature)
            if not self._buckets:
                self._unsubscribe()
                self._on_empty()

    def _ordered(self, signatures: tuple[str, ...]) -> tuple[_Member, ...]:
        """The members of ``signatures`` in registration order."""
        members = self._orders.get(signatures)
        if members is None:
            joined = (m for signature in signatures for m in self._buckets[signature].values())
            members = tuple(sorted(joined, key=attrgetter("ordinal")))
            if len(self._orders) >= MAX_ORDERS:
                self._orders.clear()
            self._orders[signatures] = members
        return members

    # -- dispatch (the stream calls these) -----------------------------------

    def __call__(self, item: Any) -> None:
        if item is EOS:
            matched = tuple(self._buckets)
        else:
            self.items += 1
            self._stats.item_invocations += 1
            matched = self.index.match(item)
        for member in self._ordered(matched):
            if member.group is not None:
                member.deliver(item)

    def batch(self, items: list) -> None:
        """A burst, pipeline-major as :meth:`Stream.emit_many` promises."""
        self.items += len(items)
        self._stats.batch_invocations += 1
        self._stats.batch_items += len(items)
        match = self.index.match
        survivors: dict[str, list] = {}
        for item in items:
            for signature in match(item):
                if signature in survivors:
                    survivors[signature].append(item)
                else:
                    survivors[signature] = [item]
        # tails are shared for this dispatch only: the first member of a
        # program computes a stage over a survivor list, its twins find it
        # under (stage signature, id(input list)); both stay referenced here
        memo: dict[tuple[str, int], list] = {}
        for member in self._ordered(tuple(survivors)):
            if member.group is not None:
                member.batch(survivors[member.signature], memo)
