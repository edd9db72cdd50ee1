"""E2 -- two-stage Filter vs naive per-subscription evaluation (Section 4, Figure 5).

Claim: checking cheap simple conditions first and running tree-pattern
queries only for the active subscriptions sustains far higher item rates
than evaluating every subscription on every item, and the gap widens with
the number of subscriptions.
"""

import pytest

from repro.filtering import FilterOperator, NaiveFilter

from benchmarks.conftest import (
    make_alert_items,
    make_subscription_set,
    make_tree_subscription_set,
)

SUBSCRIPTION_COUNTS = [10, 100, 1000, 3000]
N_ITEMS = 150


@pytest.mark.parametrize("n_subscriptions", SUBSCRIPTION_COUNTS)
def test_two_stage_filter_throughput(benchmark, n_subscriptions):
    items = make_alert_items(N_ITEMS, seed=1)
    filter_op = FilterOperator(make_subscription_set(n_subscriptions, seed=2))

    def run():
        matches = 0
        for item in items:
            matches += len(filter_op.process(item).matched)
        return matches

    matches = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["experiment"] = "E2"
    benchmark.extra_info["strategy"] = "two-stage"
    benchmark.extra_info["subscriptions"] = n_subscriptions
    benchmark.extra_info["items"] = N_ITEMS
    benchmark.extra_info["matches"] = matches


@pytest.mark.parametrize("n_subscriptions", SUBSCRIPTION_COUNTS)
def test_naive_filter_throughput(benchmark, n_subscriptions):
    items = make_alert_items(N_ITEMS, seed=1)
    naive = NaiveFilter(make_subscription_set(n_subscriptions, seed=2))

    def run():
        matches = 0
        for item in items:
            matches += len(naive.process(item).matched)
        return matches

    matches = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = "E2"
    benchmark.extra_info["strategy"] = "naive"
    benchmark.extra_info["subscriptions"] = n_subscriptions
    benchmark.extra_info["items"] = N_ITEMS
    benchmark.extra_info["matches"] = matches


def test_tree_subscriptions_agree_with_extensional_oracle(benchmark):
    """An all-complex subscription set gets the reference extensional verdicts."""
    items = make_alert_items(50, seed=3)
    subscriptions = make_tree_subscription_set(200, seed=4)
    fast = FilterOperator(subscriptions)

    def run():
        agreements = 0
        for item in items:
            expected = sorted(s.sub_id for s in subscriptions if s.matches_extensionally(item))
            agreements += fast.process(item).matched == expected
        return agreements

    agreements = benchmark.pedantic(run, rounds=1, iterations=1)
    assert agreements == len(items)


def test_both_strategies_agree(benchmark):
    """Sanity check folded into the bench suite: identical verdicts."""
    items = make_alert_items(50, seed=3)
    subscriptions = make_subscription_set(200, seed=4)
    fast = FilterOperator(subscriptions)
    naive = NaiveFilter(subscriptions)

    def run():
        agreements = 0
        for item in items:
            if fast.process(item).matched == naive.process(item).matched:
                agreements += 1
        return agreements

    agreements = benchmark.pedantic(run, rounds=1, iterations=1)
    assert agreements == len(items)
