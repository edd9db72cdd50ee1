"""E6 -- lazy ActiveXML materialisation avoids external service calls (Section 4).

Claim: because simple conditions are checked before the tree-pattern stage,
items whose simple conditions fail never trigger the Web-service call that
would materialise their intensional content, whereas a naive filter has to
materialise every item.

Counted, not timed: ``ServiceRegistry.calls_performed``.
"""

import pytest

from repro.filtering import FilterOperator, FilterSubscription, NaiveFilter, SimpleCondition
from repro.xmlmodel import Element, XPath, make_service_call, parse_xml
from repro.xmlmodel.axml import ServiceRegistry

N_ITEMS = 400
FAIL_FRACTIONS = [0.5, 0.9, 0.99]


def make_active_items(n_items: int, fail_fraction: float) -> list[Element]:
    """Items carrying an ``sc`` call; a fraction fails the simple conditions."""
    items = []
    for index in range(n_items):
        failing = index < n_items * fail_fraction
        item = Element(
            "root",
            {"attr1": "x", "attr2": "y" if failing else "z", "seq": str(index)},
        )
        item.append(make_service_call("storage", "site"))
        items.append(item)
    return items


def make_registry() -> ServiceRegistry:
    registry = ServiceRegistry()
    registry.register("storage", "site", lambda _: [parse_xml("<c><d>heavy payload</d></c>")])
    return registry


def paper_subscription() -> FilterSubscription:
    return FilterSubscription(
        "paper",
        simple=[SimpleCondition("attr1", "=", "x"), SimpleCondition("attr2", "=", "z")],
        complex_queries=[XPath.compile("//c/d")],
    )


@pytest.mark.parametrize("fail_fraction", FAIL_FRACTIONS)
@pytest.mark.parametrize("strategy", ["lazy", "eager"])
def test_service_calls_avoided(strategy, fail_fraction):
    items = make_active_items(N_ITEMS, fail_fraction)
    registry = make_registry()
    if strategy == "lazy":
        filter_op = FilterOperator([paper_subscription()], service_registry=registry)
    else:
        filter_op = NaiveFilter([paper_subscription()], service_registry=registry)

    matches = sum(len(filter_op.process(item).matched) for item in items)
    expected_matches = round(N_ITEMS * (1 - fail_fraction))
    assert matches == expected_matches
    if strategy == "lazy":
        assert registry.calls_performed == expected_matches
    else:
        assert registry.calls_performed == N_ITEMS
