"""SubscriptionBuilder: the fluent API compiles to the same plans as P2PML text."""

import pytest

from repro.algebra.plan import plan_signature
from repro.p2pml import P2PMLCompileError, SubscriptionBuilder, parse_subscription
from repro.p2pml.ast import Operand
from repro.p2pml.compiler import compile_subscription
from repro.workloads import MeteoScenario
from repro.workloads.meteo import METEO_SUBSCRIPTION_TEMPLATE
from repro.xmlmodel.tree import Element


class TestOperandParse:
    def test_reference_forms(self):
        attr = Operand.parse("$c.callId")
        assert (attr.kind, attr.var, attr.detail) == ("attribute", "c", "callId")
        path = Operand.parse("$x/rss/entry")
        assert (path.kind, path.var, path.detail) == ("path", "x", "rss/entry")
        var = Operand.parse("$j")
        assert (var.kind, var.var) == ("variable", "j")

    def test_literal_forms(self):
        assert Operand.parse(10).kind == "number"
        assert Operand.parse("10.5").kind == "number"
        quoted = Operand.parse('"GetTemperature"')
        assert (quoted.kind, quoted.value) == ("literal", "GetTemperature")
        bare = Operand.parse("fault")
        assert (bare.kind, bare.value) == ("literal", "fault")

    def test_operand_passthrough(self):
        operand = Operand("literal", value="x")
        assert Operand.parse(operand) is operand


def meteo_builder(threshold=10.0):
    return (
        SubscriptionBuilder()
        .for_var("c1", "outCOM", "a.com", "b.com")
        .for_var("c2", "inCOM", "meteo.com")
        .let("duration", "$c1.responseTimestamp - $c1.callTimestamp")
        .where("$duration", ">", threshold)
        .where("$c1.callMethod", "=", '"GetTemperature"')
        .where("$c1.callee", "=", '"meteo.com"')
        .where("$c1.callId", "=", "$c2.callId")
        .returns(
            '<incident type="slowAnswer">'
            "<client>{$c1.caller}</client>"
            "<tstamp>{$c2.callTimestamp}</tstamp>"
            "</incident>"
        )
        .by_channel("alertQoS")
    )


class TestBuilderEquivalence:
    def test_compiles_to_the_same_plan_as_text(self):
        text_ast = parse_subscription(METEO_SUBSCRIPTION_TEMPLATE.format(threshold=10))
        built_ast = meteo_builder(threshold=10).build()
        text_plan = compile_subscription(text_ast)
        built_plan = compile_subscription(built_ast)
        assert plan_signature(built_plan) == plan_signature(text_plan)

    def test_built_subscription_reuses_textual_streams(self):
        scenario = MeteoScenario(threshold=10.0, slow_fraction=0.3, seed=47)
        first = scenario.deploy()
        second = scenario.monitor.subscribe(
            meteo_builder(threshold=10.0), sub_id="meteo-built", max_results=10_000
        )
        scenario.system.run()
        # the Reuse algorithm recognises the built plan as already running
        assert second.reuse_report.nodes_reused > 0
        assert second.operator_count < first.operator_count
        scenario.run_traffic(120)
        assert len(second.results()) == len(first.results()) > 0
        second.cancel()
        first.cancel()
        assert len(scenario.system.resources) == 0

    def test_membership_follow_builds_dynamic_alerter(self):
        ast = (
            SubscriptionBuilder()
            .for_var("j", "areRegistered", "monitor.example")
            .for_var("c", "inCOM", follow="$j")
            .where("$c.callMethod", "=", '"Get"')
            .returns('<seen callee="{$c.callee}"/>')
            .build()
        )
        text = parse_subscription(
            """
            for $j in areRegistered(<p>monitor.example</p>),
                $c in inCOM($j)
            where $c.callMethod = "Get"
            return <seen callee="{$c.callee}"/>
            """
        )
        assert plan_signature(compile_subscription(ast)) == plan_signature(
            compile_subscription(text)
        )

    def test_identity_projection_and_distinct(self):
        ast = (
            SubscriptionBuilder()
            .for_var("x", "rssFeed", "feeds.example")
            .where("$x.kind", "=", '"add"')
            .distinct()
            .returns("$x")
            .build()
        )
        text = parse_subscription(
            'for $x in rssFeed(<p>feeds.example</p>) where $x.kind = "add" '
            "return distinct $x"
        )
        assert plan_signature(compile_subscription(ast)) == plan_signature(
            compile_subscription(text)
        )

    def test_template_element_accepted_directly(self):
        template = Element("out", text="{$x}")
        ast = (
            SubscriptionBuilder()
            .for_var("x", "rssFeed", "feeds.example")
            .returns(template)
            .build()
        )
        assert ast.template is template


class TestBuilderValidation:
    def test_empty_subscription_rejected(self):
        with pytest.raises(P2PMLCompileError, match="FOR binding"):
            SubscriptionBuilder().build()

    def test_alerter_needs_peers_or_follow(self):
        with pytest.raises(P2PMLCompileError, match="no monitored peer"):
            SubscriptionBuilder().for_var("c", "inCOM")
        with pytest.raises(P2PMLCompileError, match="cannot both"):
            SubscriptionBuilder().for_var("c", "inCOM", "a.com", follow="$j")

    def test_condition_needs_right_side_with_operator(self):
        with pytest.raises(P2PMLCompileError, match="no right side"):
            SubscriptionBuilder().where("$x.kind", "=")

    def test_where_exists_requires_path(self):
        builder = SubscriptionBuilder().for_var("x", "rssFeed", "feeds.example")
        builder.where_exists("$x/rss/entry")
        with pytest.raises(P2PMLCompileError, match="path expression"):
            builder.where_exists("$x.kind")

    def test_empty_let_rejected(self):
        with pytest.raises(P2PMLCompileError, match="empty expression"):
            SubscriptionBuilder().let("d", "  ")

    def test_let_signs(self):
        builder = SubscriptionBuilder().let("d", "-$a.x + $a.y - 3")
        definition = builder._lets[0]
        assert [(sign, str(op)) for sign, op in definition.terms] == [
            (-1, "$a.x"),
            (1, "$a.y"),
            (-1, "3"),
        ]
