"""The compiled RETURN template builds what the per-item interpreter built.

``RestructureTemplate`` parses every ``{...}`` hole once, when it is built.
The interpreter it replaced re-parsed each hole for every item; it is frozen
below as ``interpreted`` and is the reference: the same tree (equal, and
serialised alike) with the same ``weight()``, for every RETURN template of
the repository benchmark decks, the examples and the chaos catalog, and for
generated skeletons with attribute, path, whole-variable, literal and
missing-variable holes, static text and nesting.

Every node a template builds is born weighed: its ``_weight`` slot is set by
``instantiate`` itself, without a ``weight()`` call, to what the uncached
walk of ``test_e2e_fastpath`` computes.  Only an embedded copy of a tree that
was never weighed is walked, once.
"""

import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_e2e_fastpath  # its uncached weight walk is the reference here too
from repro.algebra.template import RestructureTemplate, ValueRef, parse_value_ref
from repro.p2pml import parse_subscription
from repro.scenarios.catalog import make_scenario, scenario_names
from repro.workloads.meteo import MeteoScenario
from repro.xmlmodel import Element, XPath, parse_xml, to_xml

ROOT = Path(__file__).resolve().parent.parent
uncached_weight = test_e2e_fastpath.TestWeightCache().uncached_weight

# -- the interpreter, as it was ------------------------------------------------------


def _hole_expression(raw):
    if raw is None:
        return None
    stripped = raw.strip()
    if stripped.startswith("{") and stripped.endswith("}"):
        return stripped[1:-1].strip()
    return None


def _node(ref: ValueRef, binding):
    if ref.kind == "literal":
        return Element("value", text=ref.detail)
    tree = binding.get(ref.var)
    if tree is None:
        return None
    if ref.kind == "self":
        return tree
    if ref.kind == "attribute":
        return None
    for item in XPath.compile(ref.detail).select(tree, relative=True):
        if isinstance(item, Element):
            return item
    return None


def _substitute_scalar(raw, binding):
    expression = _hole_expression(raw)
    if expression is None:
        return raw
    value = parse_value_ref(expression).value(binding)
    return value if value is not None else ""


def interpreted(node: Element, binding) -> Element:
    attrib = {name: _substitute_scalar(value, binding) for name, value in node.attrib.items()}
    out = Element(node.tag, attrib)
    if node.text is not None:
        expression = _hole_expression(node.text)
        if expression is not None:
            ref = parse_value_ref(expression)
            embedded = _node(ref, binding)
            if embedded is not None and ref.kind in ("self", "path"):
                out.append(embedded.copy())
            else:
                out.text = ref.value(binding) or ""
        else:
            out.text = node.text
    for child in node.children:
        out.append(interpreted(child, binding))
    return out


def interpreted_variables(skeleton: Element) -> set[str]:
    found = set()
    for node in skeleton.iter():
        for value in list(node.attrib.values()) + ([node.text] if node.text else []):
            expression = _hole_expression(value)
            if expression is not None and parse_value_ref(expression).var:
                found.add(parse_value_ref(expression).var)
    return found


class CountingWeight:
    """``Element.weight`` counting its calls, a walk's recursion too, while patched in."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        plain = Element.weight

        def weight(node: Element) -> int:
            self.calls += 1
            return plain(node)

        monkeypatch.setattr(Element, "weight", weight)


def assert_born_weighed(built: Element) -> None:
    for node in built.iter():
        assert node._weight is not None and node._weight == uncached_weight(node), to_xml(node)


def assert_same(skeleton: Element, binding) -> None:
    template = RestructureTemplate(skeleton)
    for tree in binding.values():
        tree.weight()  # an emitted item is weighed when it crosses a link: its copies carry the memo
    with pytest.MonkeyPatch.context() as monkeypatch:
        counting = CountingWeight(monkeypatch)
        built = template.instantiate(binding)
    assert counting.calls == 0
    assert_born_weighed(built)
    expected = interpreted(skeleton, binding)
    assert built == expected
    assert to_xml(built) == to_xml(expected)
    assert built.weight() == expected.weight()


# -- every RETURN template of the repository -----------------------------------------


def _template(text: str) -> Element:
    return parse_subscription(text).template


def deck_templates() -> list[Element]:
    sys.path.insert(0, str(ROOT))
    try:
        from perf import decks
    finally:
        sys.path.remove(str(ROOT))
    specs = [decks.FanoutSub(1), decks.MeteoSub(1), decks.EdosSub(decks.MIRRORS[0], "Get0")]
    specs += [decks.filter_sub(k) for k in range(40)]
    return [_template(spec.text()) for spec in specs]


def example_templates() -> list[Element]:
    """RETURN clauses of the examples' P2PML texts and builder calls."""
    found = []
    for path in sorted((ROOT / "examples").glob("*.py")):
        source = path.read_text()
        for prefix, body in re.findall(r'(f?)"""(.*?)"""', source, re.DOTALL):
            clause = re.search(r"\breturn\s+<.*", body, re.DOTALL)
            if clause is None:
                continue
            text = clause.group(0)
            if prefix:
                text = text.replace("{{", "{").replace("}}", "}")
            found.append(_template("for $c in outCOM(<p>a</p>) " + text))
        for template in re.findall(r"\.returns\('(.*?)'\)", source):
            found.append(_template(f"for $c in outCOM(<p>a</p>) return {template}"))
    return found


def catalog_templates() -> list[Element]:
    texts = {make_scenario(name)._subscription_text(["s0", "s1"]) for name in scenario_names()}
    return [_template(text) for text in sorted(texts)] + [_template(MeteoScenario().subscription_text())]


def sample_tree(names: set[str]) -> Element:
    """An alert carrying every attribute a template may read, plus children."""
    attrib = {name: f"v-{name}" for name in sorted(names)}
    return Element("alert", attrib, [Element("soap", {"id": "9"}, [Element("method", text="Get")])], text="body")


def hole_refs(skeleton: Element) -> list[ValueRef]:
    refs = []
    for node in skeleton.iter():
        for value in list(node.attrib.values()) + [node.text]:
            expression = _hole_expression(value)
            if expression is not None:
                refs.append(parse_value_ref(expression))
    return refs


REPOSITORY_TEMPLATES = {
    "decks": deck_templates,
    "examples": example_templates,
    "catalog": catalog_templates,
}


@pytest.mark.parametrize("source", sorted(REPOSITORY_TEMPLATES))
def test_every_repository_template_builds_what_the_interpreter_built(source):
    templates = REPOSITORY_TEMPLATES[source]()
    assert len(templates) >= {"decks": 40, "examples": 7, "catalog": 2}[source]
    for skeleton in templates:
        refs = hole_refs(skeleton)
        assert refs, to_xml(skeleton)
        variables = {ref.var for ref in refs if ref.var}
        tree = sample_tree({ref.detail for ref in refs if ref.kind == "attribute"})
        assert RestructureTemplate(skeleton).variables() == interpreted_variables(skeleton) == variables
        assert_same(skeleton, {var: tree for var in variables})  # every hole filled
        assert_same(skeleton, {var: Element("alert") for var in variables})  # every value missing
        assert_same(skeleton, {})  # every variable missing


# -- generated skeletons -------------------------------------------------------------

HOLES = [
    "{$a.x}",
    "{ $b.y }",
    "{$a.missing}",
    "{$gone.x}",
    "{$a}",
    "{$b}",
    "{$gone}",
    "{$a/soap/method}",
    "{$a/soap}",
    "{$b/soap/@id}",
    "{$a/nothing}",
    "{'literal'}",
    '{"quoted"}',
    "{plain}",
]
STATIC = ["", "text", " padded ", "{not a hole", "$a.x"]

values = st.sampled_from(HOLES + STATIC)
skeletons = st.recursive(
    st.builds(
        lambda tag, attrib, text: Element(tag, attrib, text=text),
        st.sampled_from(["out", "a", "b"]),
        st.dictionaries(st.sampled_from(["k", "who", "n"]), values, max_size=3),
        st.none() | values,
    ),
    lambda children: st.builds(
        lambda tag, attrib, text, kids: Element(tag, attrib, kids, text=text),
        st.sampled_from(["wrap", "row"]),
        st.dictionaries(st.sampled_from(["k", "m"]), values, max_size=2),
        st.none() | values,
        st.lists(children, max_size=3),
    ),
    max_leaves=8,
)


def bindings():
    a = Element("alert", {"x": "1", "y": "2"}, [Element("soap", {"id": "7"}, [Element("method", text="Get")])])
    b = Element("answer", {"y": "3"}, [Element("soap", {"id": "8"})], text="b-text")
    return st.sampled_from([{}, {"a": a}, {"b": b}, {"a": a, "b": b}, {"a": b, "b": a}])


@settings(max_examples=300, deadline=None)
@given(skeleton=skeletons, binding=bindings())
def test_generated_skeletons_build_what_the_interpreter_built(skeleton, binding):
    assert_same(skeleton, binding)
    assert RestructureTemplate(skeleton).variables() == interpreted_variables(skeleton)


def test_a_template_is_reusable_and_leaves_its_skeleton_alone():
    skeleton = parse_xml('<out who="{$a.x}"><copy>{$a}</copy></out>')
    before = to_xml(skeleton)
    template = RestructureTemplate(skeleton)
    tree = Element("alert", {"x": "1"})
    first, second = template.instantiate({"a": tree}), template.instantiate({"a": tree})
    assert first == second and first is not second
    assert first.find("copy").children[0] is not tree  # an embedded subtree is a copy
    assert to_xml(skeleton) == before


# -- born weighed --------------------------------------------------------------------


def instantiate_counted(monkeypatch, source: str, binding) -> tuple[Element, int]:
    template = RestructureTemplate(parse_xml(source))
    counting = CountingWeight(monkeypatch)
    built = template.instantiate(binding)
    monkeypatch.undo()
    return built, counting.calls


def test_an_embedded_tree_never_weighed_is_walked_once_in_its_copy(monkeypatch):
    tree = Element("alert", {"x": "1"}, [Element("soap", {"id": "7"}, [Element("method", text="Get")])])
    source = '<out who="{$a.x}"><copy>{$a}</copy><m>{$a/soap}</m></out>'
    built, calls = instantiate_counted(monkeypatch, source, {"a": tree})
    assert calls == 3 + 2  # one walk of each embedded copy: its 3 and its 2 nodes
    assert_born_weighed(built)
    assert all(node._weight is None for node in tree.iter())  # the bound tree itself is left alone
    assert built == interpreted(parse_xml(source), {"a": tree})


@pytest.mark.parametrize(
    "source,binding,text",
    [
        ('<out who="{$gone.x}"><n>{$gone/a}</n><v>{$gone}</v></out>', {}, ""),  # a missing variable
        ('<out who="{$a.empty}"><n>{$a.empty}</n></out>', {"a": Element("alert", {"empty": ""})}, ""),  # empty values
        ("<out who=\"{'lit'}\"><n>{\"quoted\"}</n></out>", {}, "quoted"),  # literal holes
        ('<out who=" {$a.x} " k="static">text<n> {$a.x} </n></out>', {"a": Element("alert", {"x": "12"})}, "12"),
    ],
)
def test_holes_without_a_tree_are_weighed_at_birth(monkeypatch, source, binding, text):
    built, calls = instantiate_counted(monkeypatch, source, binding)
    assert calls == 0
    assert_born_weighed(built)
    assert built.children[-1].text == text
    assert built == interpreted(parse_xml(source), binding)
