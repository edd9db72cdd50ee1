"""The plain-Python oracle agrees with the repository's own naive filter."""

import random

from repro.alerters import soap_alert
from repro.algebra.plan import FILTER
from repro.filtering.naive import NaiveFilter
from repro.p2pml.compiler import compile_text

from perf import decks, oracle
from perf.workloads import soap_call


def filter_subscription(text: str, sub_id: str):
    plan = compile_text(text, sub_id)
    [node] = [node for node in plan.iter_nodes() if node.kind == FILTER]
    subscription = node.params["subscription"]
    subscription.sub_id = sub_id
    return subscription


def test_oracle_agrees_with_naive_filter_on_200_subscriptions():
    rng = random.Random(5)
    specs = rng.sample([decks.filter_sub(k) for k in range(2000)], 200)
    naive = NaiveFilter([filter_subscription(spec.text(), f"q{i}") for i, spec in enumerate(specs)])
    matched_something = 0
    for call in decks.soap_deck(200, 0):
        want = sorted(f"q{i}" for i, spec in enumerate(specs) if oracle.result(spec, call) is not None)
        got = naive.process(soap_alert(soap_call(call), "out")).matched
        assert got == want, call
        matched_something += bool(want)
    assert matched_something > 100


def test_expectation_counts_and_payloads():
    subs = [decks.FanoutSub(1), decks.FanoutSub(5), decks.FanoutSub(5), decks.FanoutSub(9)]
    expect = oracle.Expectation(subs, live=[0, 1, 3])
    alerts = [decks.Numbered(n) for n in (0, 4, 5, 12)]
    expect.publish(alerts)
    assert expect.total() == 3 + 2 + 1
    assert expect.mismatches([3, 2, 0, 1]) == []
    assert len(expect.mismatches([3, 2, 1, 1])) == 1  # a cancelled subscription got an item
    assert len(expect.mismatches([3, 1, 0, 1])) == 1
    assert expect.mismatches([3, 1, 0, 1], skip=frozenset({1})) == []
    seen = "<seen><src>src</src><n>{}</n></seen>".format
    captured = {0: [seen(4), seen(5), seen(12)], 1: [seen(12), seen(5)], 3: [seen(12)]}
    assert expect.payload_mismatches(alerts, captured) == []
    captured[3] = [seen(5)]
    assert len(expect.payload_mismatches(alerts, captured)) == 1
