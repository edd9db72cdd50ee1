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


class JoinOperator(Operator):
    """⋈ -- joins two streams on an equality predicate over extracted values.

    "For each new tree t in one of the input streams, the history of the
    other stream is searched for a tree t' so that (t, t') matches the join
    predicate.  An index over that history is used to speed up the search."
    (Section 3.1)

    The output items are binding tuples pairing ``left_var`` and ``right_var``
    (bindings of already-joined inputs are merged in), so a downstream
    Restructure can refer to both sides.
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
        # history index: join key -> items seen on that side
        self._index: list[dict[tuple, list[Element]]] = [{}, {}]
        # keys in arrival order, per side: only a window evicts by them
        self._arrival: tuple[deque[tuple], deque[tuple]] | None = (
            None if window is None else (deque(), deque())
        )
        self.index_probes = 0
        # per side, the root attribute that is a raw item's whole key, if any
        self._attribute = [
            ref.detail if len(self.predicate) == 1 and ref.kind == "attribute" and ref.var == var else None
            for ref, var in zip(self.predicate[0], (left_var, right_var))
        ]

    def on_item(self, index: int, item: Element) -> None:
        self._probe(index, (item,))

    def on_batch(self, index: int, items: list[Element]) -> None:
        self.items_in += len(items)
        self._probe(index, items)

    def _probe(self, index: int, items: Sequence[Element]) -> None:
        """Store each keyed item and search the other side's history index
        with it; the joined tuples leave as one burst."""
        if index not in (0, 1):
            raise ValueError("JoinOperator has exactly two inputs")
        var, attribute = (self.left_var, self.right_var)[index], self._attribute[index]
        own, other, windowed = self._index[index], self._index[1 - index], self._arrival is not None
        joined = []
        for item in items:
            if attribute is not None and item.tag != TUPLE_TAG:
                key: tuple = (item.attrib.get(attribute),)
            else:
                binding = get_binding(item, var)
                key = tuple([pair[index].value(binding) for pair in self.predicate])
            if None in key:
                continue
            if windowed:
                self._store(index, key, item)
            elif key in own:
                own[key].append(item)
            else:
                own[key] = [item]
            self.index_probes += 1
            for match in other.get(key, ()):  # indexed history search
                pair = (item, match) if index == 0 else (match, item)
                joined.append(merge_tuple_items(*pair, self.left_var, self.right_var))
        if joined:
            self.emit_batch(joined)

    def _store(self, side: int, key: tuple, item: Element) -> None:
        """Index ``item``, evicting its side's oldest one beyond the window."""
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
