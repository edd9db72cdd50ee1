"""Tests for the integrated two-stage FilterOperator (and the naive baseline)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.filtering import FilterOperator, FilterSubscription, NaiveFilter, SimpleCondition
from repro.xmlmodel import Element, XPath, make_service_call, parse_xml
from repro.xmlmodel.axml import ServiceRegistry


def alert(**attrs) -> Element:
    item = Element("alert", attrs)
    item.append(parse_xml("<soap><body><c><d>data</d></c></body></soap>"))
    return item


def meteo_subscription(sub_id="slow-meteo") -> FilterSubscription:
    return FilterSubscription(
        sub_id,
        simple=[
            SimpleCondition("callMethod", "=", "GetTemperature"),
            SimpleCondition("callee", "=", "http://meteo.com"),
            SimpleCondition("duration", ">", "10"),
        ],
    )


class TestFilterOperator:
    def test_simple_subscription_matching(self):
        filter_op = FilterOperator([meteo_subscription()])
        hit = alert(callMethod="GetTemperature", callee="http://meteo.com", duration="12")
        miss = alert(callMethod="GetTemperature", callee="http://meteo.com", duration="5")
        assert filter_op.process(hit).matched == ["slow-meteo"]
        assert filter_op.process(miss).matched == []
        assert filter_op.items_processed == 2
        assert filter_op.items_matched == 1

    def test_complex_subscription_requires_both_stages(self):
        sub = FilterSubscription(
            "complex",
            simple=[SimpleCondition("type", "=", "ws")],
            complex_queries=[XPath.compile("//c/d")],
        )
        filter_op = FilterOperator([sub])
        match = alert(type="ws")
        wrong_attr = alert(type="other")
        wrong_body = Element("alert", {"type": "ws"})
        assert filter_op.process(match).matched == ["complex"]
        assert filter_op.process(wrong_attr).matched == []
        assert filter_op.process(wrong_body).matched == []

    def test_complex_stage_skipped_when_simple_fails(self):
        sub = FilterSubscription(
            "complex",
            simple=[SimpleCondition("type", "=", "ws")],
            complex_queries=[XPath.compile("//c/d")],
        )
        filter_op = FilterOperator([sub])
        filter_op.process(alert(type="other"))
        assert filter_op.complex_evaluations == 0
        filter_op.process(alert(type="ws"))
        assert filter_op.complex_evaluations == 1

    def test_multiple_complex_queries_are_conjunctive(self):
        sub = FilterSubscription(
            "conj",
            complex_queries=[XPath.compile("//c/d"), XPath.compile("//missing")],
        )
        filter_op = FilterOperator([sub])
        assert filter_op.process(alert()).matched == []

    def test_multiple_subscriptions(self):
        subs = [
            meteo_subscription("m"),
            FilterSubscription("any-call", [SimpleCondition("callMethod", "=", "GetTemperature")]),
            FilterSubscription("never", [SimpleCondition("callMethod", "=", "Nope")]),
        ]
        filter_op = FilterOperator(subs)
        result = filter_op.process(
            alert(callMethod="GetTemperature", callee="http://meteo.com", duration="30")
        )
        assert result.matched == ["any-call", "m"]
        assert result.any

    def test_duplicate_subscription_rejected(self):
        filter_op = FilterOperator([meteo_subscription()])
        with pytest.raises(ValueError):
            filter_op.add_subscription(meteo_subscription())

    def test_subscription_lookup_and_len(self):
        filter_op = FilterOperator([meteo_subscription()])
        assert len(filter_op) == 1
        assert filter_op.subscription_ids == ["slow-meteo"]
        assert filter_op.subscription("slow-meteo").sub_id == "slow-meteo"

    def test_reset_counters(self):
        filter_op = FilterOperator([meteo_subscription()])
        filter_op.process(alert(callMethod="GetTemperature", callee="http://meteo.com", duration="12"))
        filter_op.reset_counters()
        assert filter_op.items_processed == 0
        assert filter_op.items_matched == 0


class TestActiveXMLLaziness:
    def make_registry(self) -> ServiceRegistry:
        registry = ServiceRegistry()
        registry.register("storage", "site", lambda _: [parse_xml("<c><d>heavy</d></c>")])
        return registry

    def active_item(self, **attrs) -> Element:
        item = Element("root", attrs)
        item.append(make_service_call("storage", "site"))
        return item

    def paper_subscription(self) -> FilterSubscription:
        # $item.attr1="x" and $item.attr2="z" and $item//c/d
        return FilterSubscription(
            "paper",
            simple=[SimpleCondition("attr1", "=", "x"), SimpleCondition("attr2", "=", "z")],
            complex_queries=[XPath.compile("//c/d")],
        )

    def test_failed_simple_conditions_avoid_the_service_call(self):
        registry = self.make_registry()
        filter_op = FilterOperator([self.paper_subscription()], service_registry=registry)
        # attr2 = "y" != "z": the service call must NOT be performed
        result = filter_op.process(self.active_item(attr1="x", attr2="y"))
        assert result.matched == []
        assert registry.calls_performed == 0
        assert filter_op.materializations == 0

    def test_satisfied_simple_conditions_trigger_materialisation(self):
        registry = self.make_registry()
        filter_op = FilterOperator([self.paper_subscription()], service_registry=registry)
        result = filter_op.process(self.active_item(attr1="x", attr2="z"))
        assert result.matched == ["paper"]
        assert registry.calls_performed == 1
        assert filter_op.materializations == 1

    def test_naive_filter_always_materialises(self):
        registry = self.make_registry()
        naive = NaiveFilter([self.paper_subscription()], service_registry=registry)
        naive.process(self.active_item(attr1="x", attr2="y"))
        assert registry.calls_performed == 1


class TestNaiveFilter:
    def test_same_verdict_as_two_stage(self):
        subs = [
            meteo_subscription("m"),
            FilterSubscription(
                "body", [SimpleCondition("callMethod", "=", "GetTemperature")],
                [XPath.compile("//c/d")],
            ),
        ]
        fast = FilterOperator(subs)
        naive = NaiveFilter(subs)
        items = [
            alert(callMethod="GetTemperature", callee="http://meteo.com", duration="15"),
            alert(callMethod="GetTemperature", callee="http://meteo.com", duration="3"),
            alert(callMethod="Other"),
            Element("alert", {"callMethod": "GetTemperature"}),
        ]
        for item in items:
            assert fast.process(item).matched == naive.process(item).matched

    def test_duplicate_subscription_rejected(self):
        naive = NaiveFilter([meteo_subscription()])
        with pytest.raises(ValueError):
            naive.add_subscription(meteo_subscription())
        assert len(naive) == 1

    def test_evaluation_counter_grows_linearly(self):
        subs = [FilterSubscription(f"s{i}", [SimpleCondition("a", "=", str(i))]) for i in range(10)]
        naive = NaiveFilter(subs)
        naive.process(Element("x", {"a": "3"}))
        assert naive.evaluations == 10


# --------------------------------------------------------------------------- #
# Property: the two-stage filter agrees with the naive reference filter.
# --------------------------------------------------------------------------- #

_attr_names = st.sampled_from(["a", "b", "c", "d"])
_attr_values = st.sampled_from(["1", "2", "3", "x", "y"])
_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
_paths = st.sampled_from(["//u", "//u/v", "/item/u", "//w", "/item//v", "//u//w"])


@st.composite
def _subscriptions(draw):
    n_simple = draw(st.integers(min_value=0, max_value=3))
    simple = [
        SimpleCondition(draw(_attr_names), draw(_ops), draw(_attr_values))
        for _ in range(n_simple)
    ]
    n_complex = draw(st.integers(min_value=0, max_value=2))
    complex_queries = [XPath.compile(draw(_paths)) for _ in range(n_complex)]
    return simple, complex_queries


@st.composite
def _items(draw):
    attrs = draw(st.dictionaries(_attr_names, _attr_values, max_size=4))
    item = Element("item", attrs)
    structure = draw(st.sampled_from(["none", "u", "uv", "uw", "w"]))
    if structure == "u":
        item.append(Element("u"))
    elif structure == "uv":
        item.append(Element("u", children=[Element("v")]))
    elif structure == "uw":
        item.append(Element("u", children=[Element("w")]))
    elif structure == "w":
        item.append(Element("w"))
    return item


@settings(max_examples=120, deadline=None)
@given(
    subscription_specs=st.lists(_subscriptions(), min_size=1, max_size=6),
    items=st.lists(_items(), min_size=1, max_size=5),
)
def test_property_two_stage_agrees_with_naive(subscription_specs, items):
    subs = [
        FilterSubscription(f"q{i}", simple, complex_queries)
        for i, (simple, complex_queries) in enumerate(subscription_specs)
    ]
    fast = FilterOperator(subs)
    naive = NaiveFilter(subs)
    for item in items:
        assert fast.process(item).matched == naive.process(item).matched


# --------------------------------------------------------------------------- #
# Removal: subscriptions leave, dead conditions/queries are forgotten.
# --------------------------------------------------------------------------- #


@settings(max_examples=120, deadline=None)
@given(
    subscription_specs=st.lists(_subscriptions(), min_size=1, max_size=8),
    removals=st.lists(st.integers(min_value=0, max_value=7), max_size=8),
    items=st.lists(_items(), min_size=1, max_size=4),
)
def test_property_removed_subscriptions_stop_matching(subscription_specs, removals, items):
    live = {
        f"q{i}": FilterSubscription(f"q{i}", simple, complex_queries)
        for i, (simple, complex_queries) in enumerate(subscription_specs)
    }
    fast = FilterOperator(list(live.values()))
    for item in items:
        fast.process(item)  # warm every cache a removal must invalidate
    for index in removals:
        sub_id = f"q{index}"
        if sub_id in live:
            del live[sub_id]
            fast.remove_subscription(sub_id)
        else:
            # leave-then-rejoin, under the same id
            simple, complex_queries = subscription_specs[index % len(subscription_specs)]
            live[sub_id] = FilterSubscription(sub_id, simple, complex_queries)
            fast.add_subscription(live[sub_id])
        naive = NaiveFilter(list(live.values()))
        for item in items:
            assert fast.process(item).matched == naive.process(item).matched
        assert len(fast) == fast.aes.subscription_count == len(live)
    for sub_id in list(live):
        fast.remove_subscription(sub_id)
    # nothing but the root is left of the hash tree, no condition, no query
    assert fast.aes.node_count() == 1
    assert len(fast.conditions) == fast.yfilter.query_count == 0


class TestRemoval:
    def test_twin_tree_patterns_are_one_query_and_die_with_their_last_user(self):
        subs = [
            FilterSubscription(f"q{i}", [SimpleCondition("a", "=", str(i))], [XPath.compile("//u")])
            for i in range(3)
        ] + [FilterSubscription("w", [SimpleCondition("a", "=", "9")], [XPath.compile("//w")])]
        filter_op = FilterOperator(subs)
        assert filter_op.yfilter.query_count == 2  # one per distinct path text
        item = Element("item", {"a": "1"}, [Element("u")])
        assert filter_op.process(item).matched == ["q1"]
        filter_op.remove_subscription("q1")
        assert filter_op.process(item).matched == []
        assert filter_op.yfilter.query_count == 2  # //u still has two users

    def test_rebuild_once_more_than_half_is_dead(self):
        subs = [FilterSubscription(f"q{i}", [SimpleCondition("a", "=", str(i))]) for i in range(8)]
        filter_op = FilterOperator(subs)
        registry = filter_op.conditions
        for i in range(4):
            filter_op.remove_subscription(f"q{i}")
        # half dead: condition ids stay stable, nothing is rebuilt yet
        assert filter_op.conditions is registry and len(registry) == 8
        assert filter_op.aes.live_conditions == 4
        filter_op.remove_subscription("q4")
        assert filter_op.conditions is not registry and len(filter_op.conditions) == 3
        assert filter_op.process(Element("item", {"a": "7"})).matched == ["q7"]
        assert filter_op.process(Element("item", {"a": "4"})).matched == []

    def test_unknown_subscription_raises(self):
        with pytest.raises(KeyError):
            FilterOperator().remove_subscription("nope")
