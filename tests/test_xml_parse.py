"""Tests for the XML parser and serialiser (round-trips, error handling)."""

import pytest
from hypothesis import given, strategies as st

from repro.xmlmodel import Element, XMLParseError, parse_xml, pretty_xml, to_xml


class TestParseBasics:
    def test_single_empty_element(self):
        root = parse_xml("<a/>")
        assert root.tag == "a"
        assert root.children == []
        assert root.text is None

    def test_attributes_double_and_single_quotes(self):
        root = parse_xml("""<a x="1" y='two'/>""")
        assert root.attrib == {"x": "1", "y": "two"}

    def test_nested_children_and_text(self):
        root = parse_xml("<a><b>hello</b><c/></a>")
        assert [c.tag for c in root.children] == ["b", "c"]
        assert root.find("b").text == "hello"

    def test_whitespace_only_text_dropped(self):
        root = parse_xml("<a>\n  <b/>\n</a>")
        assert root.text is None

    def test_xml_declaration_and_comments_skipped(self):
        root = parse_xml('<?xml version="1.0"?><!-- hi --><a><!-- inner --><b/></a>')
        assert root.tag == "a"
        assert len(root.children) == 1

    def test_doctype_skipped(self):
        root = parse_xml("<!DOCTYPE html><a/>")
        assert root.tag == "a"

    def test_cdata(self):
        root = parse_xml("<a><![CDATA[1 < 2 & 3 > 2]]></a>")
        assert root.text == "1 < 2 & 3 > 2"

    def test_entities(self):
        root = parse_xml("<a x=\"&lt;&amp;&gt;\">&quot;&apos;&#65;&#x42;</a>")
        assert root.attrib["x"] == "<&>"
        assert root.text == "\"'AB"

    def test_paper_example_stream_item(self):
        source = (
            '<root attr1="x" attr2="y">'
            '<sc service="storage" address="site"><parameters/></sc>'
            "</root>"
        )
        root = parse_xml(source)
        assert root.attrib == {"attr1": "x", "attr2": "y"}
        sc = root.find("sc")
        assert sc.attrib["service"] == "storage"


class TestParseErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "",
            "just text",
            "<a>",
            "<a></b>",
            "<a x=1/>",
            "<a x='1'",
            "<a/><b/>",
            "<a>&unknown;</a>",
            "<a><!-- unterminated</a>",
            "<a><![CDATA[unterminated</a>",
        ],
    )
    def test_malformed_inputs_raise(self, source):
        with pytest.raises(XMLParseError):
            parse_xml(source)

    def test_error_reports_line_and_column(self):
        with pytest.raises(XMLParseError) as err:
            parse_xml("<a>\n<b></c>\n</a>")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize(
        "source, offset",
        [
            ("<a>&#xZZ;</a>", 3),
            ("<a b='&#;'/>", 6),
            ("<a>&#99999999;</a>", 3),
            ("<a>x&#x110000;</a>", 4),
            ("<a b='&#x;'/>", 6),
            ("<a>&#+65;</a>", 3),
            pytest.param("<a>&#" + "9" * 5000 + ";</a>", 3, id="5000-digits"),
        ],
    )
    def test_bad_character_reference_is_located(self, source, offset):
        with pytest.raises(XMLParseError, match="invalid character reference") as err:
            parse_xml(source)
        assert err.value.position == offset

    def test_character_references_at_the_edges(self):
        text = parse_xml("<a>&#x10FFFF;&#X41;&#0000000000065;&#x00000000042;</a>").text
        assert text == "\U0010ffffAAB"

    def test_non_string_input(self):
        with pytest.raises(TypeError):
            parse_xml(b"<a/>")  # type: ignore[arg-type]


class TestSerialize:
    def test_roundtrip_simple(self):
        root = parse_xml('<a x="1"><b>text</b><c/></a>')
        assert parse_xml(to_xml(root)) == root

    def test_escaping_in_attributes_and_text(self):
        node = Element("a", {"x": 'va"l<ue&'}, text="a<b&c>d")
        assert parse_xml(to_xml(node)) == node

    def test_pretty_contains_newlines(self):
        root = parse_xml("<a><b/><c/></a>")
        pretty = pretty_xml(root)
        assert pretty.count("\n") >= 3
        assert parse_xml(pretty) == root

    def test_self_closing_for_empty(self):
        assert to_xml(Element("a")) == "<a/>"


# --------------------------------------------------------------------------- #
# Property-based round-trip: arbitrary trees survive serialise -> parse.
# --------------------------------------------------------------------------- #

_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu"), max_codepoint=127),
    min_size=1,
    max_size=8,
)
_texts = st.text(
    alphabet=st.characters(
        blacklist_characters="\r", min_codepoint=32, max_codepoint=126
    ),
    min_size=1,
    max_size=20,
).map(str.strip).filter(bool)


@st.composite
def _elements(draw, depth=2):
    tag = draw(_names)
    attrs = draw(
        st.dictionaries(_names, _texts, max_size=3)
    )
    text = draw(st.none() | _texts)
    children = []
    if depth > 0:
        children = draw(st.lists(_elements(depth=depth - 1), max_size=3))
    return Element(tag, attrs, children, text)


@given(_elements())
def test_roundtrip_property(tree):
    assert parse_xml(to_xml(tree)) == tree
    assert parse_xml(pretty_xml(tree)) == tree
