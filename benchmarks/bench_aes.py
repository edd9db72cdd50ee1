"""E3 -- AES hash-tree vs linear scan for conjunctions of simple conditions (Figure 6).

Claim ([15], used by Section 4): matching the simple-condition part of a
document against the subscription set through the hash-tree costs what the
document's *satisfied conditions* dictate, regardless of how many
subscriptions are registered, whereas a linear scan tests every one.

Counted, not timed: ``AESFilter.nodes_visited`` per item.  Every item of
the seeded stream satisfies the same number k of conditions, so the walk can
enter at most 2**k - 1 tree nodes whatever the subscription count; the
linear scan performs one subset test per subscription per item.
"""

from functools import cache

import pytest

from repro.filtering import AESFilter, ConditionRegistry, PreFilter

from benchmarks.conftest import make_alert_items, make_subscription_set

SUBSCRIPTION_COUNTS = [10, 100, 1000, 5000]
N_ITEMS = 200


@cache
def measure(n_subscriptions: int) -> dict[str, float]:
    registry = ConditionRegistry()
    subscriptions = make_subscription_set(n_subscriptions, seed=7)
    aes = AESFilter(registry)
    aes.add_subscriptions(subscriptions)
    prefilter = PreFilter(registry)
    satisfied = [prefilter.satisfied_conditions(item) for item in make_alert_items(N_ITEMS, seed=8)]
    id_sets = [set(sub.condition_ids(registry)) for sub in subscriptions]
    matches = scan_matches = 0
    for conditions in satisfied:
        match = aes.match(conditions)
        matches += len(match.simple_matches) + len(match.active_complex)
        scan_matches += sum(ids.issubset(conditions) for ids in id_sets)
    return {
        "satisfied_counts": frozenset(map(len, satisfied)),
        "nodes_per_item": aes.nodes_visited / N_ITEMS,
        "matches": matches,
        "scan_matches": scan_matches,
    }


@pytest.mark.parametrize("n_subscriptions", SUBSCRIPTION_COUNTS)
def test_hash_tree_walk_is_bounded_by_the_satisfied_conditions(n_subscriptions):
    counters = measure(n_subscriptions)
    (satisfied,) = counters["satisfied_counts"]  # the same count on every item
    assert 0 < counters["nodes_per_item"] <= 2**satisfied - 1
    # ... which is below the linear scan's one subset test per subscription
    assert counters["nodes_per_item"] < n_subscriptions
    assert counters["matches"] == counters["scan_matches"] > 0


def test_nodes_visited_per_item_is_flat_in_the_subscription_count():
    """From 100 to 5 000 subscriptions, within 2x (ten subscriptions leave
    the tree unsaturated and visit fewer nodes still)."""
    per_item = [measure(n)["nodes_per_item"] for n in SUBSCRIPTION_COUNTS if n >= 100]
    assert max(per_item) < 2 * min(per_item)
