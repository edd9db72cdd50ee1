"""Runtime stream processors: Union, Join, Duplicate-removal, Group.

Operators are push-based: they subscribe to their input streams and emit to
an output :class:`~repro.streams.Stream`.  Union keeps no history; the
stateful ones (Join, Duplicate-removal, Group) maintain the state described
in Section 3.1.  Filter (σ) and Restructure (Π) are not operators: the plan
compiler (:mod:`repro.compile`) fuses them into pipeline stages.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Sequence

from repro.algebra.template import TUPLE_TAG, ValueRef, get_binding, merge_tuple_items
from repro.streams.item import EOS
from repro.streams.stream import Stream
from repro.xmlmodel.tree import Element


class Operator:
    """Base class: one or more input streams, one output stream."""

    #: Human-readable operator name, used in stream descriptions (Section 5).
    name = "operator"
    #: Stateless operators can always be shared / reused without history concerns.
    stateless = True

    def __init__(self, output: Stream | None = None) -> None:
        self.output = output if output is not None else Stream(f"{self.name}-out")
        self.inputs: list[Stream] = []
        self._open_inputs = 0
        self._unsubscribes: list[Callable[[], None]] = []
        self.detached = False
        self.items_in = 0
        self.items_out = 0

    # -- wiring ---------------------------------------------------------------

    def connect(self, stream: Stream) -> "Operator":
        """Attach ``stream`` as the next input; returns self for chaining."""
        index = len(self.inputs)
        self.inputs.append(stream)
        self._open_inputs += 1

        deliver = partial(self._receive, index)
        # Advertise the batch entry point so Stream.emit_many can hand over
        # whole bursts in one call (see Stream.emit_many); it never delivers EOS.
        deliver.batch = partial(self.on_batch, index)  # type: ignore[attr-defined]
        self._unsubscribes.append(stream.subscribe(deliver))
        return self

    def detach(self) -> None:
        """Unsubscribe from every input without closing the output stream.

        Teardown (subscription cancellation) uses this: the operator stops
        consuming immediately, while closing/retracting its output stays a
        separate decision owned by the resource ledger.
        """
        self.detached = True
        while self._unsubscribes:
            self._unsubscribes.pop()()

    def _receive(self, index: int, item: Any) -> None:
        if item is EOS:
            self._open_inputs -= 1
            if self._open_inputs <= 0:
                self.on_close()
                self.output.close()
            return
        self.items_in += 1
        self.on_item(index, item)

    def emit(self, item: Element) -> None:
        self.items_out += 1
        self.output.emit(item)

    def emit_batch(self, items: list[Element]) -> None:
        self.items_out += len(items)
        self.output.emit_trusted(items)

    # -- to override ------------------------------------------------------------

    def on_item(self, index: int, item: Element) -> None:  # pragma: no cover
        raise NotImplementedError

    def on_batch(self, index: int, items: list[Element]) -> None:
        """Process a burst; the default loops :meth:`on_item`, counting ``items_in``
        between calls (GroupOperator's ``every`` reads it).  Overrides count it."""
        on_item = self.on_item
        for item in items:
            self.items_in += 1
            on_item(index, item)

    def on_close(self) -> None:
        """Called when every input reached EOS, before the output is closed."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(in={self.items_in}, out={self.items_out}, "
            f"inputs={len(self.inputs)})"
        )


class UnionOperator(Operator):
    """∪ -- merges several input streams into one output stream."""

    name = "Union"
    stateless = True

    def on_item(self, index: int, item: Element) -> None:
        self.emit(item)

    def on_batch(self, index: int, items: list[Element]) -> None:
        self.items_in += len(items)
        self.emit_batch(items)


class JoinSide:
    """One input of the joins reading a stream under one key: its history and
    "an index over that history" (Section 3.1), each item keyed and stored once.

    A member join sees the items numbered from its ``base`` on (stored since it
    joined).  It *pulls* on one side -- an item there searches the member's view
    of the other side and, under a key new to the member, enters it in the other
    side's ``waiting`` -- and is *waited* on the other: an item there reaches
    only the members waiting under its key (``JoinOperator.connect`` orients it).
    """

    def __init__(self, var: str, refs: tuple[ValueRef, ...], store: Callable[[tuple, tuple], None] | None = None) -> None:
        self.var, self.refs, self._store = var, refs, store  # a window's store evicts
        #: the root attribute that is a raw item's whole key, if any
        whole = len(refs) == 1 and refs[0].kind == "attribute" and refs[0].var == var
        self.attribute = refs[0].detail if whole else None
        self.history: dict[tuple, list[tuple[int, Element]]] = {}  # key -> [(seq, item)]
        self.waiting: dict[tuple, list[tuple[JoinOperator, int]]] = {}
        #: (member, its input index here) in joining order, and those that pull here
        self.members: tuple[tuple[JoinOperator, int], ...] = ()
        self.pullers: list[tuple[JoinOperator, int]] = []
        self.seq = 0

    def leave(self, member: "JoinOperator", index: int) -> None:
        """Drop ``member`` (its detach), and, if it pulled here, its entries in
        the other side's ``waiting``: one under each key of its view here."""
        self.members = tuple([entry for entry in self.members if entry != (member, index)])
        self.pullers = [entry for entry in self.pullers if entry != (member, index)]
        if self.history and member._waited == 1 - index:
            wait, base, entry = member._sides[1 - index].waiting, member._bases[index], (member, 1 - index)
            for key, bucket in self.history.items():
                if bucket[-1][0] >= base:
                    wait[key].remove(entry)
                    if not wait[key]:
                        del wait[key]

    def offer(self, items: Sequence[Element]) -> None:
        """Key and store each item, search the views it reaches; each member's
        joined tuples leave as one burst, in joining order."""
        var, refs, attribute, store = self.var, self.refs, self.attribute, self._store
        history, waiting, pullers = self.history, self.waiting, self.pullers
        joined: dict[JoinOperator, list[Element]] = {}
        seq = first = self.seq
        for item in items:
            if attribute is not None and item.tag != TUPLE_TAG:
                key: tuple = (item.attrib.get(attribute),)
            else:
                binding = get_binding(item, var)
                key = tuple([ref.value(binding) for ref in refs])
            if None in key:
                continue
            bucket = history[key] if key in history else None
            for member, index in pullers + waiting[key] if key in waiting else pullers:
                other = 1 - index
                if member._waited == other and (bucket is None or bucket[-1][0] < member._bases[index]):
                    wait = member._sides[other].waiting
                    if key in wait:
                        wait[key].append((member, other))
                    else:
                        wait[key] = [(member, other)]
                matches = member._index[other].get(key)  # indexed history search
                if matches:
                    pairs = joined[member] if member in joined else joined.setdefault(member, [])
                    base, left_var, right_var = member._bases[other], member.left_var, member.right_var
                    for number, match in matches:
                        if number >= base:
                            pair = (item, match) if index == 0 else (match, item)
                            pairs.append(merge_tuple_items(*pair, left_var, right_var))
            if store is not None:
                store(key, (seq, item))
            elif bucket is None:
                history[key] = [(seq, item)]
            else:
                bucket.append((seq, item))
            seq += 1
        self.seq = seq
        for member, index in self.members:
            member.index_probes += seq - first
            member._held[index] += seq - first
            if member in joined and not member.detached:
                member.emit_batch(joined[member])


class JoinOperator(Operator):
    """⋈ -- joins two streams on an equality predicate over extracted values.

    "For each new tree t in one of the input streams, the history of the
    other stream is searched for a tree t' so that (t, t') matches the join
    predicate.  An index over that history is used to speed up the search."
    (Section 3.1)

    The output items are binding tuples pairing ``left_var`` and ``right_var``
    (bindings of already-joined inputs are merged in), so a downstream
    Restructure can refer to both sides.  Each input is a :class:`JoinSide`;
    on one shared with other joins (``connect``'s ``share``) this join sees
    only the items that arrived since it joined.
    """

    name = "Join"
    stateless = False

    def __init__(
        self,
        left_var: str,
        right_var: str,
        predicate: Sequence[tuple[ValueRef, ValueRef]],
        output: Stream | None = None,
        window: int | None = None,
    ) -> None:
        super().__init__(output)
        if not predicate:
            raise ValueError("a join needs at least one equality in its predicate")
        self.left_var = left_var
        self.right_var = right_var
        self.predicate = list(predicate)
        self.window = window
        # per side: the refs keying it, the side, its history index, the first
        # item number seen and the items held; the side this join is waited on
        self._columns: tuple[tuple[ValueRef, ...], ...] = tuple(zip(*self.predicate))
        self._sides: list[JoinSide] = []
        self._index: list[dict[tuple, list]] = [{}, {}]
        self._bases, self._held = [0, 0], [0, 0]
        self._waited: int | None = None
        # keys in arrival order, per side: only a window evicts by them
        self._arrival: tuple[deque[tuple], deque[tuple]] | None = (
            None if window is None else (deque(), deque())
        )
        self.index_probes = 0

    def connect(self, stream: Stream, share: Callable[..., JoinSide] | None = None) -> "JoinOperator":
        """Attach ``stream`` as the next input.  Its side is ``share(stream, var,
        refs)``, shared with the joins reading ``stream`` under the same key, or
        by default a side of this join alone, fed through its subscription."""
        index = len(self.inputs)
        if index > 1:
            return super().connect(stream)  # its items are refused
        var, refs = (self.left_var, self.right_var)[index], self._columns[index]
        if share is None:
            side = JoinSide(var, refs, None if self.window is None else partial(self._store, index))
            super().connect(stream)
        else:
            side = share(stream, var, refs)  # it subscribes itself
            self.inputs.append(stream)
            self._open_inputs += 1
        side.members += ((self, index),)
        self._unsubscribes.append(partial(side.leave, self, index))
        self._sides.append(side)
        self._index[index], self._bases[index] = side.history, side.seq
        if index == 1:
            # waited on the side with more members; a windowed join pulls on both (an
            # evicted key would enter a waiting list twice), and so does a join whose
            # left took items before its right was attached (none waits under their keys)
            left = self._sides[0]
            if self.window is None and len(left.members) > len(side.members):
                self._waited = 0
            elif self.window is None and left.seq == self._bases[0]:
                self._waited = 1
            for pulled, pull_side in enumerate(self._sides):
                if pulled != self._waited:
                    pull_side.pullers.append((self, pulled))
        return self

    def on_item(self, index: int, item: Element) -> None:
        self._probe(index, (item,))

    def on_batch(self, index: int, items: list[Element]) -> None:
        self.items_in += len(items)
        self._probe(index, items)

    def _probe(self, index: int, items: Sequence[Element]) -> None:
        if index not in (0, 1):
            raise ValueError("JoinOperator has exactly two inputs")
        self._sides[index].offer(items)

    def _store(self, side: int, key: tuple, item: tuple[int, Element]) -> None:
        """Index the numbered ``item``, evicting its side's oldest one beyond the window."""
        self._index[side].setdefault(key, []).append(item)
        arrival = self._arrival[side]  # type: ignore[index]
        arrival.append(key)
        if len(arrival) > self.window:
            oldest_key = arrival.popleft()
            bucket = self._index[side].get(oldest_key)
            if bucket:
                bucket.pop(0)
                if not bucket:
                    del self._index[side][oldest_key]

    def history_size(self, side: int) -> int:
        """Items held on input ``side``: stored since this join joined, within its window."""
        if self.window is None:
            return self._held[side]
        return sum(len(bucket) for bucket in self._index[side].values())


class DuplicateRemovalOperator(Operator):
    """Forwards each distinct item once, according to a duplicate criterion."""

    name = "DuplicateRemoval"
    stateless = False

    def __init__(
        self,
        criterion: Callable[[Element], object] | None = None,
        output: Stream | None = None,
    ) -> None:
        super().__init__(output)
        self._criterion = criterion if criterion is not None else _structural_criterion
        self._seen: set[object] = set()

    def on_item(self, index: int, item: Element) -> None:
        key = self._criterion(item)
        if key in self._seen:
            return
        self._seen.add(key)
        self.emit(item)

    @property
    def distinct_count(self) -> int:
        return len(self._seen)


def _structural_criterion(item: Element) -> object:
    return item.structural_key()


class GroupOperator(Operator):
    """Groups items by a key and periodically emits per-group statistics.

    Every ``every`` input items (default: on close only), the operator emits
    a ``<groups>`` element with one ``<group key=... count=...>`` child per
    key seen so far.  This is the aggregation substrate used by the Edos
    statistics scenarios.
    """

    name = "Group"
    stateless = False

    def __init__(
        self,
        key: ValueRef | Callable[[Element], str | None],
        every: int | None = None,
        output: Stream | None = None,
        default_var: str | None = None,
    ) -> None:
        super().__init__(output)
        self._key = key
        self._every = every
        self._default_var = default_var
        self.counts: dict[str, int] = {}

    def _key_of(self, item: Element) -> str | None:
        if callable(self._key):
            return self._key(item)
        return self._key.value(get_binding(item, self._default_var))

    def on_item(self, index: int, item: Element) -> None:
        key = self._key_of(item)
        if key is None:
            key = "(none)"
        self.counts[key] = self.counts.get(key, 0) + 1
        if self._every is not None and self.items_in % self._every == 0:
            self.emit(self.snapshot())

    def on_close(self) -> None:
        if self.counts:
            self.emit(self.snapshot())

    def snapshot(self) -> Element:
        groups = Element("groups", {"total": sum(self.counts.values())})
        for key in sorted(self.counts):
            groups.append(Element("group", {"key": key, "count": self.counts[key]}))
        return groups
