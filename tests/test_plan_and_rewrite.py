"""Tests for plan nodes, signatures and rewriting rules."""

import pytest

from repro.algebra import PlanNode, plan_signature, push_selections_down
from repro.algebra.expr import ANY, Doc, Eval, Label, Receive, Send, Service, Var, generic_services
from repro.algebra.plan import ALERTER, FILTER, JOIN, PUBLISH, RESTRUCTURE, UNION
from repro.algebra.rewrite import rewrite_external_invocation, rewrite_local_invocation
from repro.algebra.template import RestructureTemplate
from repro.filtering import FilterSubscription, SimpleCondition
from repro.xmlmodel import Element


def alerter(peer: str, kind: str = "outCOM", var: str = "c1") -> PlanNode:
    return PlanNode(ALERTER, {"alerter": kind, "peer": peer, "var": var}, placement=peer)


def filter_node(child: PlanNode, var="c1", attr="callMethod", value="GetTemperature") -> PlanNode:
    subscription = FilterSubscription(
        f"f-{var}", [SimpleCondition(attr, "=", value)]
    )
    return PlanNode(FILTER, {"subscription": subscription, "var": var}, [child])


def meteo_plan() -> PlanNode:
    """The canonical (un-pushed) plan for the Figure 1 subscription."""
    union = PlanNode(UNION, {}, [alerter("a.com"), alerter("b.com")])
    filtered_union = filter_node(union, var="c1")
    server = filter_node(alerter("meteo.com", "inCOM", "c2"), var="c2")
    join = PlanNode(
        JOIN,
        {"left_var": "c1", "right_var": "c2", "predicate": [("$c1.callId", "$c2.callId")]},
        [filtered_union, server],
    )
    restructure = PlanNode(
        RESTRUCTURE,
        {"template": RestructureTemplate(Element("incident", {"type": "slowAnswer"}))},
        [join],
    )
    return PlanNode(PUBLISH, {"mode": "channel", "target": "alertQoS"}, [restructure])


class TestPlanNode:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            PlanNode("bogus")

    def test_iteration_is_postorder(self):
        plan = meteo_plan()
        kinds = [node.kind for node in plan.iter_nodes()]
        assert kinds[-1] == PUBLISH
        assert kinds[0] == ALERTER

    def test_counts_and_find(self):
        plan = meteo_plan()
        assert plan.count(ALERTER) == 3
        assert plan.count(FILTER) == 2
        assert plan.count() == len(list(plan.iter_nodes()))
        assert len(plan.find_all(JOIN)) == 1
        assert len(plan.leaves()) == 3

    def test_copy_is_deep(self):
        plan = meteo_plan()
        clone = plan.copy()
        clone.children[0].params["extra"] = True
        assert "extra" not in plan.children[0].params

    def test_placement_tracking(self):
        plan = meteo_plan()
        unplaced = plan.unplaced_nodes()
        assert all(node.kind != ALERTER for node in unplaced)  # alerters are placed
        assert len(unplaced) > 0
        for node in plan.iter_nodes():
            node.placement = node.placement or "p"
        assert plan.unplaced_nodes() == []
        assert plan.is_placed

    def test_describe_mentions_operators_and_placement(self):
        text = meteo_plan().describe()
        assert "publish" in text
        assert "@a.com" in text
        assert "@any" in text


class TestPlanSignature:
    def test_identical_plans_share_signature(self):
        assert plan_signature(meteo_plan()) == plan_signature(meteo_plan())

    def test_signature_distinguishes_different_filters(self):
        a = filter_node(alerter("a.com"), value="GetTemperature")
        b = filter_node(alerter("a.com"), value="GetHumidity")
        assert plan_signature(a) != plan_signature(b)

    def test_signature_distinguishes_peers(self):
        assert plan_signature(alerter("a.com")) != plan_signature(alerter("b.com"))

    def test_signature_ignores_placement(self):
        one = filter_node(alerter("a.com"))
        other = filter_node(alerter("a.com"))
        other.placement = "elsewhere.com"
        assert plan_signature(one) == plan_signature(other)


class TestPushSelectionsDown:
    def test_filter_pushed_through_union(self):
        plan = filter_node(PlanNode(UNION, {}, [alerter("a.com"), alerter("b.com")]))
        pushed = push_selections_down(plan)
        assert pushed.kind == UNION
        assert all(child.kind == FILTER for child in pushed.children)
        assert all(child.children[0].kind == ALERTER for child in pushed.children)

    def test_filter_pushed_to_join_side(self):
        join = PlanNode(
            JOIN,
            {"left_var": "c1", "right_var": "c2", "predicate": []},
            [alerter("a.com", var="c1"), alerter("meteo.com", "inCOM", "c2")],
        )
        plan = filter_node(join, var="c2")
        pushed = push_selections_down(plan)
        assert pushed.kind == JOIN
        assert pushed.children[0].kind == ALERTER
        assert pushed.children[1].kind == FILTER

    def test_filter_not_referencing_one_side_stays_put(self):
        join = PlanNode(
            JOIN,
            {"left_var": "c1", "right_var": "c2", "predicate": []},
            [alerter("a.com", var="c1"), alerter("b.com", var="c2")],
        )
        plan = PlanNode(FILTER, {"subscription": FilterSubscription("f", []), "var": None}, [join])
        pushed = push_selections_down(plan)
        assert pushed.kind == FILTER

    def test_full_meteo_plan_pushdown(self):
        plan = meteo_plan()
        pushed = push_selections_down(plan)
        # after pushing, the union's children are filters over the alerters
        union = pushed.find_all(UNION)[0]
        assert all(child.kind == FILTER for child in union.children)
        # original plan untouched
        assert meteo_plan().find_all(UNION)[0].children[0].kind == ALERTER

    def test_push_preserves_node_count_semantics(self):
        plan = meteo_plan()
        pushed = push_selections_down(plan)
        assert pushed.count(ALERTER) == plan.count(ALERTER)
        assert pushed.count(FILTER) == plan.count(FILTER) + 1  # filter duplicated over union


class TestSymbolicAlgebra:
    def test_notation(self):
        expr = Eval(
            "p",
            Service("publisher", "p", [Service("filter", ANY, [Doc("out", "a.com")])]),
        )
        text = str(expr)
        assert "eval@p" in text
        assert "filter@any" in text
        assert "out@a.com" in text

    def test_generic_services_detection(self):
        service = Service("sigma", ANY, [Service("inner", "q")])
        assert generic_services(service) == [service]
        concrete = service.at("p1")
        assert concrete.peer == "p1"
        assert generic_services(concrete) == []

    def test_walk_visits_every_subexpression_in_preorder(self):
        send = Send("q", Var("x", "p", is_node=True), Doc("d", "q"))
        expr = Eval("q", Label("l", [Service("s", "q", [send]), Receive("p")]))
        kinds = [type(node).__name__ for node in expr.walk()]
        # a send's target names where the result goes: it is not a subexpression
        assert kinds == ["Eval", "Label", "Service", "Send", "Doc", "Receive"]

    def test_label_and_var_notation(self):
        label = Label("result", [Var("x"), Var("M", "p", is_node=True)])
        assert str(label) == "result<$x, #M@p>"

    def test_local_invocation_rule(self):
        expr = Eval("p", Service("s", "p", [Doc("d", "p")]))
        rewritten = rewrite_local_invocation(expr)
        assert isinstance(rewritten, Service)
        assert rewritten.state == "executing"
        assert isinstance(rewritten.args[0], Eval)
        assert "°s@p(eval@p(d@p))" == str(rewritten)

    def test_local_invocation_rejects_remote_service(self):
        with pytest.raises(ValueError):
            rewrite_local_invocation(Eval("p", Service("s", "q")))
        with pytest.raises(ValueError):
            rewrite_local_invocation(Eval("p", Doc("d", "p")))

    def test_external_invocation_rule(self):
        node = Var("x", "p", is_node=True)
        expr = Eval("p", Service("s", "q", [Doc("d", "q")]))
        actions = rewrite_external_invocation(node, expr)
        assert len(actions) == 2
        receiver, sender = actions
        assert receiver.peer == "p"
        assert isinstance(receiver.expr, Receive)
        assert sender.peer == "q"
        assert isinstance(sender.expr, Eval)
        assert isinstance(sender.expr.expr, Send)
        assert "#x@p" in str(sender.expr)

    def test_external_invocation_rejects_local_service(self):
        node = Var("x", "p", is_node=True)
        with pytest.raises(ValueError):
            rewrite_external_invocation(node, Eval("p", Service("s", "p")))
        with pytest.raises(ValueError):
            rewrite_external_invocation(Var("x"), Eval("p", Service("s", "q")))
