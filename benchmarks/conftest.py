"""Shared workload builders for the claim checks.

Each module beside this file reproduces one experiment of EXPERIMENTS.md
(E1-E11, CHURN) and asserts the counter that states the paper's claim --
conditions evaluated, tree nodes visited, bytes and messages sent, service
calls made, operators deployed, DHT hops, index probes -- never a rate and
never a wall-clock time, so tier-1 collects them as ordinary tests.
"""

from __future__ import annotations

import random

from repro.filtering import ComputedCondition, FilterSubscription, SimpleCondition
from repro.workloads import SoapTrafficGenerator
from repro.xmlmodel import Element, XPath


def make_alert_items(n_items: int, seed: int = 0) -> list[Element]:
    """A stream of WS alerts shaped like the meteo workload's."""
    generator = SoapTrafficGenerator(
        clients=["a.com", "b.com", "c.com"],
        servers=["meteo.com", "tele.com"],
        methods=["GetTemperature", "GetHumidity", "GetForecast", "Invoice"],
        slow_fraction=0.2,
        seed=seed,
    )
    from repro.alerters.ws import soap_alert

    return [soap_alert(call, "in") for call in generator.run(n_items)]


def make_subscription_set(
    n_subscriptions: int, seed: int = 0, computed_fraction: float = 0.0
) -> list[FilterSubscription]:
    """Subscriptions mixing simple-only and simple+complex conditions.

    The condition pool is deliberately small so that conditions are shared
    between subscriptions, as the AES algorithm expects in practice.  When
    ``computed_fraction`` is nonzero, that fraction of subscriptions also
    carries a LET-derived :class:`ComputedCondition` over the call/response
    timestamps (a duration threshold), exercising the computed path.
    """
    rng = random.Random(seed)
    methods = ["GetTemperature", "GetHumidity", "GetForecast", "Invoice"]
    callees = ["meteo.com", "tele.com"]
    callers = ["a.com", "b.com", "c.com"]
    paths = ["//Body", "//Envelope/Body", "//param", "//error", "//Body//param"]
    subscriptions = []
    for index in range(n_subscriptions):
        simple = [SimpleCondition("callMethod", "=", rng.choice(methods))]
        if rng.random() < 0.7:
            simple.append(SimpleCondition("callee", "=", rng.choice(callees)))
        if rng.random() < 0.4:
            simple.append(SimpleCondition("caller", "=", rng.choice(callers)))
        complex_queries = []
        if rng.random() < 0.5:
            complex_queries.append(XPath.compile(rng.choice(paths)))
        computed = []
        # guard keeps the rng stream identical to the seed revision when the
        # fraction is 0.0, so seeded workloads stay comparable across PRs
        if computed_fraction and rng.random() < computed_fraction:
            # $duration := responseTimestamp - callTimestamp; $duration > T
            threshold = rng.choice([0.5, 1.0, 2.0, 5.0])
            computed.append(
                ComputedCondition(
                    ((1, "responseTimestamp"), (-1, "callTimestamp")),
                    rng.choice([">", "<="]),
                    threshold,
                )
            )
        subscriptions.append(
            FilterSubscription(f"q{index}", simple, complex_queries, computed)
        )
    return subscriptions


#: Tree patterns of the all-complex workload: every subscription carries at
#: least one, so the whole set exercises the YFilter stage.
TREE_PATHS = [
    "//Body",
    "//Envelope/Body",
    "//param",
    "//error",
    "//Body//param",
    "//Envelope//param",
    "/Envelope/Body/param",
]


def make_tree_subscription_set(
    n_subscriptions: int, seed: int = 0
) -> list[FilterSubscription]:
    """All-complex subscriptions: 1-2 simple conditions plus 1-2 tree patterns.

    Unlike :func:`make_subscription_set` (where half the subscriptions are
    simple-only), every subscription here carries complex queries, so every
    match goes through the YFilter stage.
    """
    rng = random.Random(seed)
    methods = ["GetTemperature", "GetHumidity", "GetForecast", "Invoice"]
    callees = ["meteo.com", "tele.com"]
    subscriptions = []
    for index in range(n_subscriptions):
        simple = [SimpleCondition("callMethod", "=", rng.choice(methods))]
        if rng.random() < 0.5:
            simple.append(SimpleCondition("callee", "=", rng.choice(callees)))
        complex_queries = [XPath.compile(rng.choice(TREE_PATHS))]
        if rng.random() < 0.3:
            complex_queries.append(XPath.compile(rng.choice(TREE_PATHS)))
        subscriptions.append(
            FilterSubscription(f"t{index}", simple, complex_queries)
        )
    return subscriptions
