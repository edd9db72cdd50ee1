"""A join's pair merge, held to the decode round trip it replaced.

``merge_tuple_items`` used to decode both sides into a binding dict and
encode the merged dict as a ``<tuple>`` (``make_tuple_item``); two raw items
under distinct variables -- a join of two alerter streams -- are now paired
directly.  The round trip is frozen below as ``frozen_merge``.  Over
generated raw and tuple items on each side, nested tuples, and equal and
distinct variable names in both orders, the merge must build the same tree
(``to_xml``, ``structural_key``) around the very same bound trees; and a
``JoinOperator`` of the Figure-1 deck of the repository benchmark must emit
the same tuples either way.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alerters import ws
from repro.algebra import JoinOperator
from repro.algebra import operators
from repro.algebra.plan import JOIN
from repro.algebra.template import BINDING_TAG, TUPLE_TAG, merge_tuple_items
from repro.p2pml.compiler import compile_text
from repro.streams import Stream, collect
from repro.xmlmodel import Element, to_xml

ROOT = Path(__file__).resolve().parent.parent

# -- the merge, as it was --------------------------------------------------------------


def frozen_make_tuple_item(binding) -> Element:
    bound = [Element.fast_new(BINDING_TAG, {"var": name}, [tree]) for name, tree in sorted(binding.items())]
    return Element.fast_new(TUPLE_TAG, {}, bound)


def frozen_get_binding(item: Element, default_var=None) -> dict:
    if item.tag != TUPLE_TAG:
        return {default_var or "item": item}
    binding = {}
    for child in item.children:
        if child.tag == BINDING_TAG and child.children:
            binding[child.attrib.get("var", "item")] = child.children[0]
    return binding


def frozen_merge(left: Element, right: Element, left_var, right_var) -> Element:
    binding = frozen_get_binding(left, left_var)
    binding.update(frozen_get_binding(right, right_var))
    return frozen_make_tuple_item(binding)


def assert_same_merge(merged: Element, expected: Element) -> None:
    assert to_xml(merged) == to_xml(expected)
    assert merged.structural_key() == expected.structural_key()
    assert [binding.attrib for binding in merged.children] == [binding.attrib for binding in expected.children]
    for binding, frozen in zip(merged.children, expected.children):
        assert len(binding.children) == len(frozen.children) == 1
        assert binding.children[0] is frozen.children[0]  # the bound tree is shared, never copied


# -- generated inputs ------------------------------------------------------------------

NAMES = ["c1", "c2", "a", "item", ""]
variables = st.sampled_from(NAMES + [None])


def raw_items():
    return st.builds(
        lambda tag, n: Element(tag, {"callId": str(n)}), st.sampled_from(["alert", "answer"]), st.integers(0, 3)
    )


def tuple_items(bound):
    """A binding tuple as a join emits it, or with a childless binding."""
    return st.one_of(
        st.dictionaries(st.sampled_from(NAMES), bound, min_size=1, max_size=3).map(frozen_make_tuple_item),
        st.builds(
            lambda name, tree: Element(
                TUPLE_TAG, {}, [Element(BINDING_TAG, {"var": name}), Element(BINDING_TAG, {"var": "z"}, [tree])]
            ),
            st.sampled_from(NAMES),
            bound,
        ),
    )


items = st.recursive(raw_items(), tuple_items, max_leaves=6)  # tuples bind raw items and nested tuples


@settings(max_examples=400, deadline=None)
@given(left=items, right=items, left_var=variables, right_var=variables)
def test_merge_builds_what_the_round_trip_built(left, right, left_var, right_var):
    merged = merge_tuple_items(left, right, left_var, right_var)
    assert_same_merge(merged, frozen_merge(left, right, left_var, right_var))


@pytest.mark.parametrize("left_var,right_var", [("c1", "c2"), ("c2", "c1"), ("c1", "c1"), ("", "item"), ("b", "")])
def test_two_raw_items_pair_in_variable_order(left_var, right_var):
    left, right = Element("alert", {"callId": "1"}), Element("answer", {"callId": "1"})
    merged = merge_tuple_items(left, right, left_var, right_var)
    assert_same_merge(merged, frozen_merge(left, right, left_var, right_var))
    assert [binding.attrib["var"] for binding in merged.children] == sorted(frozen_get_binding(merged))


# -- the Figure-1 join -----------------------------------------------------------------


def meteo_deck():
    """The Figure-1 deck: its JOIN node, its SOAP calls, their two alerts."""
    sys.path.insert(0, str(ROOT))
    try:
        from perf import decks
        from perf.workloads import soap_call
    finally:
        sys.path.remove(str(ROOT))
    plan = compile_text(decks.MeteoSub(10).text())
    (join,) = [node for node in plan.iter_nodes() if node.kind == JOIN]

    def alerts(n: int) -> list[tuple[Element | None, Element | None]]:
        calls = [soap_call(call) for call in decks.ingest_deck(n, 0)]
        return [
            (
                ws.soap_alert(call, ws.OUT) if call.caller in decks.METEO_CLIENTS else None,
                ws.soap_alert(call, ws.IN) if call.callee == decks.METEO_SERVER else None,
            )
            for call in calls
        ]

    return join, alerts


def run_join(join_node, bursts) -> list[Element]:
    join = JoinOperator(join_node.params["left_var"], join_node.params["right_var"], join_node.params["predicate"])
    left, right = Stream("out"), Stream("in")
    join.connect(left).connect(right)
    sink = collect(join.output)
    for side, burst in bursts:
        stream = left if side == 0 else right
        if len(burst) == 1:
            stream.emit(burst[0])
        else:
            stream.emit_many(burst)
    return list(sink)


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.tuples(st.integers(0, 1), st.integers(1, 12)), min_size=1, max_size=12))
def test_the_meteo_join_emits_what_the_round_trip_emitted(sizes):
    join_node, alerts = meteo_deck()
    pairs = alerts(sum(size for _, size in sizes))
    bursts, start = [], 0
    for first, size in sizes:  # a chunk of calls, seen on the ``first`` side before the other
        chunk = pairs[start:start + size]
        start += size
        for side in (first, 1 - first):
            burst = [pair[side] for pair in chunk if pair[side] is not None]
            if burst:
                bursts.append((side, burst))
    emitted = run_join(join_node, bursts)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(operators, "merge_tuple_items", frozen_merge)
        expected = run_join(join_node, bursts)
    assert len(emitted) == len(expected) > 0
    for merged, frozen in zip(emitted, expected):
        assert_same_merge(merged, frozen)
