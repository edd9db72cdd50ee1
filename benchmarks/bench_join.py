"""E9 -- the history index makes the stream Join cheap per item (Section 3.1).

Claim: "For each new tree t in one of the input streams, the history of the
other stream is searched ... An index over that history is used to speed up
the search."  We compare the indexed JoinOperator against an unindexed
variant that scans the whole history of the other side for every item.

Counted, not timed: ``JoinOperator.index_probes`` (one per item, whatever
the history holds) against the baseline's key ``comparisons`` (one per item
per stored opposite item), and ``history_size`` under a window.
"""

import pytest

from repro.algebra import JoinOperator, ValueRef, get_binding, make_tuple_item
from repro.algebra.operators import Operator
from repro.streams import Stream
from repro.xmlmodel import Element

HISTORY_SIZES = [100, 1000, 5000]


class UnindexedJoin(Operator):
    """Baseline join that scans the full opposite history per item."""

    name = "UnindexedJoin"
    stateless = False

    def __init__(self, left_var, right_var, predicate, output=None):
        super().__init__(output)
        self.left_var = left_var
        self.right_var = right_var
        self.predicate = predicate
        self._history = [[], []]
        self.comparisons = 0

    def _key(self, side, item):
        var = self.left_var if side == 0 else self.right_var
        binding = get_binding(item, var)
        return tuple(
            (pair[side]).value(binding) for pair in self.predicate
        )

    def on_item(self, index, item):
        self._history[index].append(item)
        other = 1 - index
        key = self._key(index, item)
        for candidate in self._history[other]:
            self.comparisons += 1
            if self._key(other, candidate) == key:
                left, right = (item, candidate) if index == 0 else (candidate, item)
                binding = get_binding(left, self.left_var)
                binding.update(get_binding(right, self.right_var))
                self.emit(make_tuple_item(binding))


def make_call_pairs(n_pairs):
    """Out-call / in-call alert pairs sharing callIds."""
    outs = [Element("alert", {"callId": str(i), "caller": "a.com"}) for i in range(n_pairs)]
    ins = [Element("alert", {"callId": str(i), "server": "meteo.com"}) for i in range(n_pairs)]
    return outs, ins


def call_id_join(join_class, **options):
    predicate = [(ValueRef.attribute("c1", "callId"), ValueRef.attribute("c2", "callId"))]
    return join_class("c1", "c2", predicate, **options)


def run_join(join_operator, outs, ins):
    left, right = Stream("out"), Stream("in")
    join_operator.connect(left).connect(right)
    produced = []
    join_operator.output.subscribe(lambda item: produced.append(item))
    for item in outs:
        left.emit(item)
    for item in ins:
        right.emit(item)
    return len(produced)


@pytest.mark.parametrize("history", HISTORY_SIZES)
def test_indexed_join_probes_once_per_item(history):
    outs, ins = make_call_pairs(history)
    join = call_id_join(JoinOperator)
    assert run_join(join, outs, ins) == history
    assert join.index_probes == 2 * history  # per item: 1, at every history size


@pytest.mark.parametrize("history", [size for size in HISTORY_SIZES if size <= 1000])
def test_unindexed_join_compares_with_the_whole_history(history):
    outs, ins = make_call_pairs(history)
    join = call_id_join(UnindexedJoin)
    assert run_join(join, outs, ins) == history
    assert join.comparisons == history * history


def test_window_bounds_state():
    """Future-work note of Section 7: bounding the stateful operators' storage."""
    outs, ins = make_call_pairs(2000)
    join = call_id_join(JoinOperator, window=100)
    run_join(join, outs, ins)
    assert 0 < join.history_size(0) <= 100 and 0 < join.history_size(1) <= 100
