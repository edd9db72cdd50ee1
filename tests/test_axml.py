"""Tests for ActiveXML service calls and lazy materialisation."""

import pytest

from repro.xmlmodel import Element, make_service_call, materialize, parse_xml, to_xml
from repro.xmlmodel.axml import (
    ServiceNotFoundError,
    ServiceRegistry,
    decode_service_call,
    has_service_calls,
    is_service_call,
)


@pytest.fixture
def registry() -> ServiceRegistry:
    reg = ServiceRegistry()
    reg.register(
        "storage",
        "site",
        lambda params: [parse_xml("<c><d>stored data</d></c>")],
    )
    return reg


def make_active_doc() -> Element:
    root = Element("root", {"attr1": "x", "attr2": "y"})
    root.append(make_service_call("storage", "site", Element("parameters")))
    return root


class TestServiceCallElements:
    def test_make_and_detect(self):
        sc = make_service_call("storage", "site")
        assert is_service_call(sc)
        assert sc.attrib["service"] == "storage"
        assert not is_service_call(Element("sc"))
        assert not is_service_call(Element("other", {"service": "s", "address": "a"}))

    def test_decode(self):
        sc = make_service_call("storage", "site", Element("parameters"))
        call = decode_service_call(sc)
        assert call.service == "storage"
        assert call.address == "site"
        assert call.key() == "storage@site"
        assert call.parameters.tag == "parameters"

    def test_decode_rejects_non_sc(self):
        with pytest.raises(ValueError):
            decode_service_call(Element("x"))

    def test_has_service_calls(self):
        assert has_service_calls(make_active_doc())
        assert not has_service_calls(Element("root"))


class TestMaterialize:
    def test_replaces_sc_with_result(self, registry):
        doc = make_active_doc()
        result = materialize(doc, registry)
        assert not has_service_calls(result)
        assert result.find("c").find("d").text == "stored data"
        assert registry.calls_performed == 1

    def test_original_untouched(self, registry):
        doc = make_active_doc()
        materialize(doc, registry)
        assert has_service_calls(doc)

    def test_missing_service_raises(self):
        doc = make_active_doc()
        with pytest.raises(ServiceNotFoundError):
            materialize(doc, ServiceRegistry())

    def test_nested_results_materialised(self):
        reg = ServiceRegistry()
        reg.register("outer", "p", lambda _: [
            Element("wrap", children=[make_service_call("inner", "p")])
        ])
        reg.register("inner", "p", lambda _: [Element("leaf", text="deep")])
        doc = Element("root", children=[make_service_call("outer", "p")])
        result = materialize(doc, reg)
        assert not has_service_calls(result)
        assert result.find("wrap").find("leaf").text == "deep"
        assert reg.calls_performed == 2

    def test_multiple_results_spliced_in_order(self):
        reg = ServiceRegistry()
        reg.register("many", "p", lambda _: [Element("a"), Element("b")])
        doc = Element("root", children=[Element("before"), make_service_call("many", "p"), Element("after")])
        result = materialize(doc, reg)
        assert [c.tag for c in result.children] == ["before", "a", "b", "after"]

    def test_reset_counters(self, registry):
        materialize(make_active_doc(), registry)
        registry.reset_counters()
        assert registry.calls_performed == 0

    def test_a_weighed_tree_materializes_to_its_serialised_weight(self):
        reg = ServiceRegistry()
        reg.register("storage", "site", lambda _: [
            Element("payload", {"blob": "b" * 200}, text="t" * 500)
        ])
        doc = parse_xml(
            '<item id="1"><body><sc service="storage" address="site"/></body></item>'
        )
        doc.weight()
        result = materialize(doc, reg)
        assert result.weight() == parse_xml(to_xml(result)).weight() == 760

    def test_results_are_copies(self):
        shared = Element("shared", text="original")
        reg = ServiceRegistry()
        reg.register("svc", "p", lambda _: [shared])
        doc = Element("root", children=[make_service_call("svc", "p")])
        out = materialize(doc, reg)
        out.find("shared").text = "mutated"
        assert shared.text == "original"
