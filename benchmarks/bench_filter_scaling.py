"""E2 -- two-stage Filter vs naive per-subscription evaluation (Section 4, Figure 5).

Claim: checking cheap simple conditions first and running tree-pattern
queries only for the active subscriptions does far less work per item than
evaluating every subscription on every item, and the gap widens with the
number of subscriptions.

Counted, not timed: the naive filter's ``evaluations`` (one per subscription
per item) against the two-stage filter's ``PreFilter.conditions_evaluated``
plus ``FilterOperator.complex_evaluations``, both per item.
"""

from functools import cache

import pytest

from repro.filtering import FilterOperator, NaiveFilter

from benchmarks.conftest import (
    make_alert_items,
    make_subscription_set,
    make_tree_subscription_set,
)

SUBSCRIPTION_COUNTS = [10, 100, 1000, 3000]
N_ITEMS = 150


@cache
def evaluations_per_item(n_subscriptions: int) -> tuple[float, float]:
    """(naive, two-stage) evaluations per item over one seeded item stream;
    the two filters must also reach identical verdicts on every item."""
    subscriptions = make_subscription_set(n_subscriptions, seed=2)
    two_stage, naive = FilterOperator(subscriptions), NaiveFilter(subscriptions)
    for item in make_alert_items(N_ITEMS, seed=1):
        assert two_stage.process(item).matched == naive.process(item).matched
    staged = two_stage.prefilter.conditions_evaluated + two_stage.complex_evaluations
    return naive.evaluations / N_ITEMS, staged / N_ITEMS


@pytest.mark.parametrize("n_subscriptions", SUBSCRIPTION_COUNTS)
def test_two_stage_filter_evaluates_less_than_naive(n_subscriptions):
    naive, two_stage = evaluations_per_item(n_subscriptions)
    assert naive == n_subscriptions
    assert two_stage < naive


def test_gap_widens_with_the_subscription_count():
    gaps = [naive - two_stage for naive, two_stage in map(evaluations_per_item, SUBSCRIPTION_COUNTS)]
    assert gaps == sorted(set(gaps))
    assert gaps[-1] > 100 * gaps[0]


def test_tree_subscriptions_agree_with_extensional_oracle():
    """An all-complex subscription set gets the reference extensional verdicts."""
    subscriptions = make_tree_subscription_set(200, seed=4)
    fast = FilterOperator(subscriptions)
    for item in make_alert_items(50, seed=3):
        expected = sorted(s.sub_id for s in subscriptions if s.matches_extensionally(item))
        assert fast.process(item).matched == expected
