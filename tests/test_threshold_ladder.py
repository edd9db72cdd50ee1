"""Computed conditions on one sum are decided by one bisect per (sum, op) ladder.

Generated: subscriptions with computed (LET-derived) conditions -- every
comparison operator, equal targets, several sums, some with two or more
conditions, some with a tree pattern too -- and items whose sum is missing,
non-numeric, not a number, equal to a target or anywhere between: the filter
matches what a frozen copy of the per-candidate comparison loop matches.
"""

import gc
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering import ComputedCondition, FilterOperator, FilterSubscription, SimpleCondition
from repro.xmlmodel import Element, XPath
from repro.xmlmodel.xpath import COMPARATORS


class FrozenLoopFilter(FilterOperator):
    """The filter that compared each candidate's computed conditions in turn."""

    def _computed(self, sub_ids):
        return sub_ids

    def _computed_hold(self, sub_ids, attributes, totals):
        holding = []
        for sub_id in sub_ids:
            for condition in self._subscriptions[sub_id].computed:
                if condition.sum_key not in totals:
                    totals[condition.sum_key] = condition.total(attributes)
                total = totals[condition.sum_key]
                if total is None or not condition.compare(total, condition.target):
                    break
            else:
                holding.append(sub_id)
        return holding


_sums = st.sampled_from([((1, "a"),), ((1, "a"), (-1, "b")), ((1, "b"), (1, "2"))])
_conditions = st.builds(ComputedCondition, _sums, st.sampled_from(sorted(COMPARATORS)), st.integers(-2, 3))
_values = st.sampled_from(["-1", "0", "1", "2", "2.5", "3", "x", "nan", "inf"])


@st.composite
def _subscriptions(draw):
    subscriptions = []
    for n in range(draw(st.integers(1, 25))):
        computed = draw(st.lists(_conditions, min_size=1, max_size=3))
        simple = [SimpleCondition("k", "=", "1")] if draw(st.booleans()) else []
        queries = [XPath.compile("//u")] if draw(st.integers(0, 4)) == 0 else []
        subscriptions.append(FilterSubscription(f"s{n}", simple=simple, complex_queries=queries, computed=computed))
    return subscriptions


@st.composite
def _items(draw):
    attributes = draw(st.dictionaries(st.sampled_from(["a", "b"]), _values))
    if draw(st.booleans()):
        attributes["k"] = "1"
    return Element("item", attributes, [Element("u")] if draw(st.booleans()) else [])


@settings(max_examples=300, deadline=None)
@given(subscriptions=_subscriptions(), items=st.lists(_items(), min_size=1, max_size=8))
def test_the_ladders_match_what_the_comparison_loop_matched(subscriptions, items):
    ladder, loop = FilterOperator(subscriptions), FrozenLoopFilter(subscriptions)
    assert [ladder.match(item) for item in items] == [loop.match(item) for item in items]
    assert ladder.complex_evaluations == loop.complex_evaluations


def test_a_ladder_compares_a_sum_once_whatever_its_rungs():
    """One ``>`` ladder of 1, 10 or 100 thresholds costs the same calls."""

    def calls(rungs: int) -> int:
        filter_ = FilterOperator(
            [FilterSubscription(f"s{n}", computed=[ComputedCondition(((1, "a"),), ">", n)]) for n in range(rungs)]
        )
        item = Element("item", {"a": "5.5"})
        assert len(filter_.match(item)) == min(rungs, 6)
        count = 0

        def profile(frame, event, argument) -> None:
            nonlocal count
            count += event in ("call", "c_call")

        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            filter_.match(item)
        finally:
            sys.setprofile(None)
            gc.enable()
        return count

    assert calls(1) == calls(10) == calls(100)
