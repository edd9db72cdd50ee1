"""E2 -- two-stage Filter vs naive per-subscription evaluation (Section 4, Figure 5).

Claim: checking cheap simple conditions first and running tree-pattern
queries only for the active subscriptions sustains far higher item rates
than evaluating every subscription on every item, and the gap widens with
the number of subscriptions.

The E2-COMPILED rows measure the plan compiler's data path over the same
workload: one fused predicate closure per simple-condition subscription
sharing verdicts through the system-wide :class:`MaterializedTable`.  The
E2-TREE rows measure the tree-pattern fusion path
(:func:`compile_tree_predicate`) over an all-complex workload.
"""

import pytest

from repro.algebra.expr import intern_signature
from repro.compile import MISS, MaterializedTable
from repro.filtering import FilterOperator, NaiveFilter
from repro.filtering.conditions import compile_simple_predicate
from repro.filtering.yfilter import compile_tree_predicate

from benchmarks.conftest import (
    make_alert_items,
    make_subscription_set,
    make_tree_subscription_set,
)

SUBSCRIPTION_COUNTS = [10, 100, 1000, 3000]
N_ITEMS = 150


def compiled_predicate_set(subscriptions):
    """(interned signature, fused predicate) per simple-condition subscription.

    Subscriptions carrying complex tree-pattern queries are skipped: they
    compile through ``compile_tree_predicate`` and are the E2-TREE rows.
    """
    compiled = []
    for subscription in subscriptions:
        if subscription.complex_queries:
            continue
        detail = ";".join(
            f"{c.attribute}{c.op}{c.value!r}" for c in subscription.simple
        )
        computed = ";".join(repr(c) for c in subscription.computed)
        signature = intern_signature(f"filter:{detail}|{computed}")
        compiled.append((signature, compile_simple_predicate(subscription)))
    return compiled


def tree_predicate_set(subscriptions):
    """(interned signature, fused tree predicate) per subscription.

    The compiled-mode data path for complex subscriptions: simple and
    computed conditions inline, tree patterns through a private lazy-DFA.
    The signature mirrors the compiler's (simple detail + complex
    expressions), so identical subscriptions share one table entry.
    """
    compiled = []
    for subscription in subscriptions:
        detail = ";".join(
            f"{c.attribute}{c.op}{c.value!r}" for c in subscription.simple
        )
        complex_part = ";".join(q.expression for q in subscription.complex_queries)
        signature = intern_signature(f"filter:{detail}|{complex_part}")
        compiled.append((signature, compile_tree_predicate(subscription)))
    return compiled


def run_compiled_predicates(items, compiled, table):
    """Evaluate every fused predicate on every item, CSE'd through the table."""
    matches = 0
    for item in items:
        for signature, predicate in compiled:
            verdict = table.get(signature, item)
            if verdict is MISS:
                verdict = table.put(signature, item, predicate(item))
            if verdict:
                matches += 1
    return matches


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


@pytest.mark.parametrize("n_subscriptions", SUBSCRIPTION_COUNTS)
def test_compiled_predicate_throughput(benchmark, n_subscriptions):
    items = make_alert_items(N_ITEMS, seed=1)
    subscriptions = make_subscription_set(n_subscriptions, seed=2)
    compiled = compiled_predicate_set(subscriptions)
    table = MaterializedTable()

    def run():
        return run_compiled_predicates(items, compiled, table)

    matches = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["experiment"] = "E2-COMPILED"
    benchmark.extra_info["strategy"] = "compiled"
    benchmark.extra_info["subscriptions"] = n_subscriptions
    benchmark.extra_info["compiled_subscriptions"] = len(compiled)
    benchmark.extra_info["items"] = N_ITEMS
    benchmark.extra_info["matches"] = matches
    benchmark.extra_info["cse_hits"] = table.hits


@pytest.mark.parametrize("n_subscriptions", SUBSCRIPTION_COUNTS)
def test_tree_pattern_fused_throughput(benchmark, n_subscriptions):
    items = make_alert_items(N_ITEMS, seed=1)
    subscriptions = make_tree_subscription_set(n_subscriptions, seed=2)
    compiled = tree_predicate_set(subscriptions)
    table = MaterializedTable()

    def run():
        return run_compiled_predicates(items, compiled, table)

    matches = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["experiment"] = "E2-TREE"
    benchmark.extra_info["strategy"] = "tree-fused"
    benchmark.extra_info["subscriptions"] = n_subscriptions
    benchmark.extra_info["items"] = N_ITEMS
    benchmark.extra_info["matches"] = matches
    benchmark.extra_info["cse_hits"] = table.hits


def test_tree_predicates_agree_with_extensional_oracle(benchmark):
    """Every fused tree predicate gives the reference extensional verdict."""
    items = make_alert_items(50, seed=3)
    subscriptions = make_tree_subscription_set(200, seed=4)
    compiled = [
        (subscription, compile_tree_predicate(subscription))
        for subscription in subscriptions
    ]

    def run():
        agreements = 0
        for item in items:
            for subscription, predicate in compiled:
                if predicate(item) == subscription.matches_extensionally(item):
                    agreements += 1
        return agreements

    agreements = benchmark.pedantic(run, rounds=1, iterations=1)
    assert agreements == len(items) * len(compiled)


def test_compiled_predicates_agree_with_naive(benchmark):
    """The fused closures give the naive oracle's verdict per subscription."""
    items = make_alert_items(50, seed=3)
    subscriptions = make_subscription_set(200, seed=4)
    compilable = [s for s in subscriptions if not s.complex_queries]
    naive = NaiveFilter(compilable)
    compiled = compiled_predicate_set(subscriptions)
    assert len(compiled) == len(compilable)
    table = MaterializedTable()

    def run():
        return run_compiled_predicates(items, compiled, table)

    matches = benchmark.pedantic(run, rounds=1, iterations=1)
    expected = sum(len(naive.process(item).matched) for item in items)
    assert matches == expected


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
