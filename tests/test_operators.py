"""Tests for the runtime stream operators."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    DuplicateRemovalOperator,
    GroupOperator,
    JoinOperator,
    UnionOperator,
    ValueRef,
    get_binding,
)
from repro.algebra.operators import Operator
from repro.streams import Stream, collect
from repro.xmlmodel import Element


def alert(**attrs) -> Element:
    return Element("alert", attrs)


class _ListArrivalJoin(JoinOperator):
    """The join with the arrival store it had before the deque: a list per
    side, kept even without a window, evicted by ``pop(0)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._arrival_lists = [[], []]

    def _store(self, side, key, item):
        self._index[side].setdefault(key, []).append(item)
        self._arrival_lists[side].append(key)
        if self.window is not None and len(self._arrival_lists[side]) > self.window:
            oldest_key = self._arrival_lists[side].pop(0)
            bucket = self._index[side].get(oldest_key)
            if bucket:
                bucket.pop(0)
                if not bucket:
                    del self._index[side][oldest_key]


def _copied_tuple(binding) -> Element:
    return Element("tuple", children=[
        Element("binding", {"var": name}, [tree.copy()]) for name, tree in sorted(binding.items())
    ])


class _ItemJoin(_ListArrivalJoin):
    """The join before it took bursts: every item keyed through its binding,
    probed and emitted on its own, every joined tuple holding copies."""

    def _key(self, side, item):
        binding = get_binding(item, self.left_var if side == 0 else self.right_var)
        values = tuple(pair[side].value(binding) for pair in self.predicate)
        return None if None in values else values

    def on_item(self, index, item):
        key = self._key(index, item)
        if key is None:
            return
        self._store(index, key, item)
        self.index_probes += 1
        for match in self._index[1 - index].get(key, ()):
            left, right = (item, match) if index == 0 else (match, item)
            binding = get_binding(left, self.left_var)
            binding.update(get_binding(right, self.right_var))
            self.emit(_copied_tuple(binding))

    on_batch = Operator.on_batch


class TestOperatorBase:
    def test_eos_propagates_when_all_inputs_close(self):
        left, right = Stream("l"), Stream("r")
        union = UnionOperator()
        union.connect(left).connect(right)
        left.close()
        assert not union.output.closed
        right.close()
        assert union.output.closed

    def test_counters(self):
        source = Stream("s")
        union = UnionOperator()
        union.connect(source)
        source.emit(alert())
        assert union.items_in == 1
        assert union.items_out == 1
        assert "in=1" in repr(union)


class TestUnion:
    def test_merges_streams(self):
        a, b, c = Stream("a"), Stream("b"), Stream("c")
        union = UnionOperator()
        for stream in (a, b, c):
            union.connect(stream)
        sink = collect(union.output)
        a.emit(alert(src="a"))
        b.emit(alert(src="b"))
        c.emit(alert(src="c"))
        a.emit(alert(src="a2"))
        assert [item.attrib["src"] for item in sink] == ["a", "b", "c", "a2"]


class TestJoin:
    def make_join(self, window=None) -> tuple[Stream, Stream, JoinOperator, list]:
        left, right = Stream("out-calls"), Stream("in-calls")
        join = JoinOperator(
            left_var="c1",
            right_var="c2",
            predicate=[(ValueRef.attribute("c1", "callId"), ValueRef.attribute("c2", "callId"))],
            window=window,
        )
        join.connect(left).connect(right)
        sink = collect(join.output)
        return left, right, join, sink

    def test_matching_pairs_joined(self):
        left, right, join, sink = self.make_join()
        left.emit(alert(callId="1", caller="a.com"))
        right.emit(alert(callId="2", server="meteo"))
        assert sink == []
        right.emit(alert(callId="1", server="meteo"))
        assert len(sink) == 1
        binding = get_binding(sink[0])
        assert binding["c1"].attrib["caller"] == "a.com"
        assert binding["c2"].attrib["server"] == "meteo"

    def test_join_is_symmetric(self):
        left, right, join, sink = self.make_join()
        right.emit(alert(callId="9", side="right"))
        left.emit(alert(callId="9", side="left"))
        assert len(sink) == 1

    def test_multiple_matches_in_history(self):
        left, right, join, sink = self.make_join()
        left.emit(alert(callId="1", n="first"))
        left.emit(alert(callId="1", n="second"))
        right.emit(alert(callId="1"))
        assert len(sink) == 2

    def test_items_missing_key_are_ignored(self):
        left, right, join, sink = self.make_join()
        left.emit(alert(other="x"))
        right.emit(alert(callId="1"))
        assert sink == []

    def test_multi_key_predicate(self):
        left, right = Stream("l"), Stream("r")
        join = JoinOperator(
            "a",
            "b",
            predicate=[
                (ValueRef.attribute("a", "callId"), ValueRef.attribute("b", "callId")),
                (ValueRef.attribute("a", "method"), ValueRef.attribute("b", "method")),
            ],
        )
        join.connect(left).connect(right)
        sink = collect(join.output)
        left.emit(alert(callId="1", method="GetTemperature"))
        right.emit(alert(callId="1", method="GetHumidity"))
        assert sink == []
        right.emit(alert(callId="1", method="GetTemperature"))
        assert len(sink) == 1

    def test_window_bounds_history(self):
        left, right, join, sink = self.make_join(window=2)
        left.emit(alert(callId="1"))
        left.emit(alert(callId="2"))
        left.emit(alert(callId="3"))  # evicts callId=1
        assert join.history_size(0) == 2
        right.emit(alert(callId="1"))
        assert sink == []
        right.emit(alert(callId="3"))
        assert len(sink) == 1

    def test_unwindowed_join_keeps_no_arrival_record(self):
        left, right, join, sink = self.make_join()
        for n in range(5_000):
            left.emit(alert(callId=str(n)))
            right.emit(alert(callId=str(n + 4_990)))
        assert join._arrival is None
        assert join.history_size(0) == join.history_size(1) == 5_000
        assert len(sink) == 10

    @settings(max_examples=150, deadline=None)
    @given(
        window=st.one_of(st.none(), st.integers(1, 6)),
        events=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 4)), max_size=60),
    )
    def test_join_matches_the_list_arrival_store(self, window, events):
        """Outputs and history sizes equal those of the list-based ``_store``
        (one ``pop(0)`` per eviction) it replaced, frozen as ``_ListArrivalJoin``."""
        items = [alert(callId=str(key), n=str(n)) for n, (_, key) in enumerate(events)]
        runs = []
        for join_class in (JoinOperator, _ListArrivalJoin):
            left, right = Stream("l"), Stream("r")
            join = join_class(
                "c1",
                "c2",
                predicate=[(ValueRef.attribute("c1", "callId"), ValueRef.attribute("c2", "callId"))],
                window=window,
            )
            join.connect(left).connect(right)
            sink = collect(join.output)
            sizes = []
            for (side, _), item in zip(events, items):
                (left if side == 0 else right).emit(item)
                sizes.append((join.history_size(0), join.history_size(1)))
            pairs = [(get_binding(out)["c1"], get_binding(out)["c2"]) for out in sink]
            runs.append(([(items.index(a), items.index(b)) for a, b in pairs], sizes))
        assert runs[0] == runs[1]

    @staticmethod
    def three_way(join_class, window):
        """``($c1 ⋈ $c2) ⋈ $c3`` on callId: raw inputs, then tuple inputs."""
        streams = [Stream("c1"), Stream("c2"), Stream("c3")]
        first = join_class(
            "c1", "c2", [(ValueRef.attribute("c1", "callId"), ValueRef.attribute("c2", "callId"))], window=window
        )
        second = join_class(
            "pair", "c3", [(ValueRef.attribute("c1", "callId"), ValueRef.attribute("c3", "callId"))], window=window
        )
        first.connect(streams[0]).connect(streams[1])
        second.connect(first.output).connect(streams[2])
        return streams, (first, second), (collect(first.output), collect(second.output))

    @settings(max_examples=200, deadline=None)
    @given(
        window=st.one_of(st.none(), st.integers(1, 6)),
        events=st.lists(st.tuples(st.integers(0, 2), st.one_of(st.none(), st.integers(0, 4))), max_size=60),
        cuts=st.lists(st.booleans(), min_size=60, max_size=60),
    )
    def test_a_join_is_the_same_however_its_input_is_cut_into_bursts(self, window, events, cuts):
        """Fed in random bursts, the join emits, as multisets, what the
        per-item join (``_ItemJoin``) emits fed item by item: the same trees
        of the same weight, binding the very items it stored."""
        items = [
            alert(n=str(n)) if key is None else alert(callId=str(key), n=str(n)) for n, (_, key) in enumerate(events)
        ]
        streams, joins, sinks = self.three_way(JoinOperator, window)
        bursts: list[tuple[int, list]] = []
        for n, ((side, _), item) in enumerate(zip(events, items)):
            if bursts and bursts[-1][0] == side and not cuts[n]:
                bursts[-1][1].append(item)
            else:
                bursts.append((side, [item]))
        for side, burst in bursts:
            if len(burst) == 1:
                streams[side].emit(burst[0])
            else:
                streams[side].emit_many(burst)
            if window is not None:
                assert all(join.history_size(s) <= window for join in joins for s in (0, 1))

        ref_streams, ref_joins, ref_sinks = self.three_way(_ItemJoin, window)
        for (side, _), item in zip(events, items):
            ref_streams[side].emit(item)

        for sink, ref_sink in zip(sinks, ref_sinks):
            assert Counter((out.structural_key(), out.weight()) for out in sink) == Counter(
                (out.structural_key(), out.weight()) for out in ref_sink
            )
        keyed = Counter(side for side, key in events if key is not None)
        assert joins[0].index_probes == ref_joins[0].index_probes == keyed[0] + keyed[1]
        assert joins[1].index_probes == ref_joins[1].index_probes == keyed[2] + len(sinks[0])
        stored = {id(item) for item in items}
        for sink in sinks:
            for out in sink:
                assert all(id(tree) in stored for tree in get_binding(out).values())

    def test_a_joined_tuple_shares_the_stored_items(self):
        left, right, join, sink = self.make_join()
        out_call, in_call = alert(callId="1", caller="a.com"), alert(callId="1", server="meteo")
        left.emit(out_call)
        right.emit_many([in_call, alert(callId="2")])
        (joined,) = sink
        binding = get_binding(joined)
        assert binding["c1"] is out_call and binding["c2"] is in_call
        assert joined.weight() == _copied_tuple(binding).weight()

    def test_empty_predicate_rejected(self):
        with pytest.raises(ValueError):
            JoinOperator("a", "b", predicate=[])

    def test_third_input_rejected(self):
        left, right, join, sink = self.make_join()
        extra = Stream("extra")
        join.connect(extra)
        with pytest.raises(ValueError):
            extra.emit(alert(callId="1"))

    def test_join_of_join_output_merges_bindings(self):
        left, right, first_join, first_sink = self.make_join()
        third = Stream("third")
        # the first join's output is a binding tuple, so the second join's
        # predicate refers to the original variable $c1 directly
        second_join = JoinOperator(
            "pair",
            "c3",
            predicate=[(ValueRef.attribute("c1", "callId"),
                        ValueRef.attribute("c3", "callId"))],
        )
        second_join.connect(first_join.output).connect(third)
        sink = collect(second_join.output)
        left.emit(alert(callId="5", caller="a.com"))
        right.emit(alert(callId="5", server="m"))
        third.emit(alert(callId="5", extra="yes"))
        assert len(sink) == 1
        binding = get_binding(sink[0])
        assert set(binding) == {"c1", "c2", "c3"}


class TestDuplicateRemoval:
    def test_structural_dedup(self):
        source = Stream("s")
        dedup = DuplicateRemovalOperator()
        dedup.connect(source)
        sink = collect(dedup.output)
        source.emit(alert(x="1"))
        source.emit(alert(x="1"))
        source.emit(alert(x="2"))
        assert len(sink) == 2
        assert dedup.distinct_count == 2

    def test_custom_criterion(self):
        source = Stream("s")
        dedup = DuplicateRemovalOperator(criterion=lambda item: item.attrib.get("key"))
        dedup.connect(source)
        sink = collect(dedup.output)
        source.emit(alert(key="a", payload="1"))
        source.emit(alert(key="a", payload="2"))
        assert len(sink) == 1


class TestGroup:
    def test_counts_by_key_and_emits_on_close(self):
        source = Stream("s")
        group = GroupOperator(key=ValueRef.attribute("item", "peer"))
        group.connect(source)
        sink = collect(group.output)
        source.emit(alert(peer="a"))
        source.emit(alert(peer="a"))
        source.emit(alert(peer="b"))
        assert sink == []
        source.close()
        assert len(sink) == 1
        snapshot = sink[0]
        assert snapshot.attrib["total"] == "3"
        counts = {g.attrib["key"]: g.attrib["count"] for g in snapshot.children}
        assert counts == {"a": "2", "b": "1"}

    def test_periodic_emission(self):
        source = Stream("s")
        group = GroupOperator(key=lambda item: item.attrib.get("peer"), every=2)
        group.connect(source)
        sink = collect(group.output)
        for i in range(4):
            source.emit(alert(peer=f"p{i % 2}"))
        assert len(sink) == 2

    def test_missing_key_grouped_as_none(self):
        source = Stream("s")
        group = GroupOperator(key=ValueRef.attribute("item", "peer"))
        group.connect(source)
        source.emit(alert(other="x"))
        source.close()
        assert group.counts == {"(none)": 1}
