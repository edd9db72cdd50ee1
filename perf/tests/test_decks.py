"""Decks are a pure function of the seed and keep their proportions."""

import random
from collections import Counter

import pytest

from perf import decks, oracle
from perf.workloads import WORKLOADS


def deal(name: str, seed, scale: float = 0.2):
    workload = WORKLOADS[name]
    return workload.deal(random.Random(f"{name}/{seed}"), workload.sizes(scale))


def fingerprint(plan) -> tuple:
    return (plan.texts, plan.batches, plan.cancels, plan.warmup, plan.bursts, plan.singles)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_order(name):
    assert fingerprint(deal(name, 7)) == fingerprint(deal(name, 7))
    assert fingerprint(deal(name, 7)) != fingerprint(deal(name, 8))
    assert deal(name, 7).cancels != deal(name, 8).cancels
    assert sorted(deal(name, 7).cancels) == sorted(deal(name, 8).cancels) or name == "ingest"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_change_order_not_proportions(name):
    first, second = deal(name, 1), deal(name, 2)
    assert Counter(first.subs) == Counter(second.subs)
    assert Counter(first.subs[i] for i in first.cancels) == Counter(second.subs[i] for i in second.cancels)
    for a, b in zip([first.warmup, *first.bursts], [second.warmup, *second.bursts]):
        assert Counter(alert.kind for alert in a) == Counter(alert.kind for alert in b)
    # every round of every cycle publishes the same mix of single alerts
    mixes = {frozenset(Counter(a.kind for a in round_).items()) for plan in (first, second) for round_ in plan.singles}
    assert len(mixes) == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_deliveries_per_round_do_not_depend_on_the_seed(name):
    totals = []
    for seed in (1, 2, 3):
        plan = deal(name, seed)
        live = [i for i in range(len(plan.subs)) if i not in plan.cancelled]
        expect = oracle.Expectation(plan.subs, live)
        expect.publish(plan.bursts[0])
        totals.append(expect.total())
    assert totals[0] > 0 and len(set(totals)) == 1


def test_filter_deck_proportions():
    subs = [decks.filter_sub(k) for k in range(2000)]
    assert Counter(sub.method for sub in subs) == {method: 500 for method in decks.METHODS}
    assert sum(sub.callee is not None for sub in subs) == 1400
    assert sum(sub.min_duration is not None for sub in subs) == 600
    assert sum(sub.path is not None for sub in subs) == 600
    calls = decks.soap_deck(200, 0)
    assert sum(call.duration > 5 for call in calls) == 40
    assert sum(call.fault for call in calls) == 24


def test_zipf_counts_cover_every_variant_and_sum_up():
    counts = decks.zipf_counts(150, 1500)
    assert sum(counts) == 1500 and min(counts) >= 1
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > 10 * counts[20]


def test_ingest_cancels_every_other_copy_of_a_variant():
    plan = deal("ingest", 3, scale=1.0)
    copies = Counter(plan.subs)
    cancelled = Counter(plan.subs[i] for i in plan.cancels)
    assert all(cancelled[spec] == (n + 1) // 2 for spec, n in copies.items())
    assert len(plan.batches) == decks.INGEST_BATCHES
    assert {len(indices) for _, indices in plan.batches} == {125}


def test_the_median_single_alert_sits_inside_a_level():
    """fanout and ingest: the middle cards of a round reach equally many subscriptions."""
    for name in ("fanout", "ingest"):
        plan = deal(name, 4, scale=1.0)
        live = [i for i in range(len(plan.subs)) if i not in plan.cancelled]
        reach = []
        for alert in plan.singles[0]:
            expect = oracle.Expectation(plan.subs, live)
            expect.publish([alert])
            reach.append(expect.total())
        reach.sort()
        middle = len(reach) // 2
        assert reach[middle - 1] == reach[middle] == reach[middle + 1], (name, reach)
