"""Tests for the P2PML lexer and parser."""

import gc
import sys
import time
from pathlib import Path

import pytest

from repro.p2pml import P2PMLSyntaxError, parse_subscription
from repro.p2pml.ast import AlerterSource, NestedSource
from repro.p2pml.lexer import Lexer

METEO_SUBSCRIPTION = """
for $c1 in outCOM(<p>http://a.com</p>
                  <p>http://b.com</p>),
    $c2 in inCOM(<p>http://meteo.com</p>)
let $duration := $c1.responseTimestamp - $c1.callTimestamp
where
    $duration > 10 and
    $c1.callMethod = "GetTemperature" and
    $c1.callee = "http://meteo.com" and
    $c1.callId = $c2.callId
return
    <incident type = "slowAnswer">
        <client>{$c1.caller}</client>
        <tstamp>{$c2.callTimestamp}</tstamp>
    </incident>
by publish as channel "alertQoS";
"""


class TestLexer:
    def test_token_stream(self):
        lexer = Lexer('for $x in outCOM(<p>a</p>) where $x.v >= 10')
        types = []
        while True:
            token = lexer.next()
            if token.type == "eof":
                break
            types.append((token.type, token.value))
            if token.value == "outCOM":
                lexer.next()  # consume '('
                fragment = lexer.read_xml_fragment()
                assert fragment.tag == "p"
        assert ("keyword", "for") in types
        assert ("var", "x") in types
        assert ("symbol", ">=") in types
        assert ("number", "10") in types

    def test_comment_skipping(self):
        lexer = Lexer("for % comment to end of line\n$x in f(<p>a</p>)")
        assert lexer.next().value == "for"
        assert lexer.next().type == "var"

    def test_unterminated_string(self):
        lexer = Lexer('where $x.a = "unterminated')
        lexer.next()
        lexer.next()
        lexer.next()
        lexer.next()
        lexer.next()
        with pytest.raises(P2PMLSyntaxError):
            lexer.next()

    def test_a_failed_token_does_not_reread_a_comment(self):
        with pytest.raises(P2PMLSyntaxError, match="unterminated string literal") as err:
            Lexer("% c\n'q").next()
        assert err.value.position == 4

    def test_a_failed_token_after_whitespace_fails_fast(self):
        # a skip that backtracks tries every split of the run: seconds at 26
        started = time.perf_counter()
        with pytest.raises(P2PMLSyntaxError, match="unterminated string literal"):
            Lexer(" " * 26 + '"q').next()
        assert time.perf_counter() - started < 0.5

    def test_path_tail_reading(self):
        lexer = Lexer("/alert[@callMethod = \"GetTemperature\"] and")
        path = lexer.read_path_tail()
        assert path == '/alert[@callMethod = "GetTemperature"]'
        assert lexer.next().value == "and"

    def test_error_reports_position(self):
        lexer = Lexer("for ^")
        lexer.next()
        with pytest.raises(P2PMLSyntaxError) as err:
            lexer.next()
        assert "line 1" in str(err.value)


def count_calls(work) -> dict[str, int]:
    """Profiler events of ``work()``: every call, and the compiled-pattern matches."""
    counts = {"calls": 0, "Pattern.match": 0}

    def count(frame, event, argument) -> None:
        if event == "call" or event == "c_call":
            counts["calls"] += 1
        if event == "c_call" and getattr(argument, "__qualname__", "") == "Pattern.match":
            counts["Pattern.match"] += 1

    # a collection inside the count would run `gc.callbacks` (hypothesis
    # registers one) and add their frames to it
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        work()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts


class TestLexerCost:
    def test_peek_then_next_lexes_once(self):
        lexer = Lexer("for $x in")
        lexer.next()
        counts = count_calls(lambda: (lexer.peek(), lexer.peek(), lexer.next()))
        assert counts["Pattern.match"] == 1
        assert lexer.pos == len("for $x")
        assert lexer.next().is_keyword("in")

    def test_parsing_the_ingest_texts_stays_within_its_call_budget(self):
        root = str(Path(__file__).resolve().parent.parent)
        sys.path.insert(0, root)
        try:
            from perf.decks import ingest_variants
        finally:
            sys.path.remove(root)
        texts = [variant.text() for variant in ingest_variants(150)]

        def parse_all():
            for text in texts:
                parse_subscription(text)

        calls = count_calls(parse_all)["calls"] / len(texts)
        # 2 169 per text with the per-character lexer, 592 with one match per token
        assert calls <= 620, calls


class TestParserMeteoExample:
    def test_bindings(self):
        ast = parse_subscription(METEO_SUBSCRIPTION)
        assert ast.variables() == ["c1", "c2"]
        c1_source = ast.bindings[0].source
        assert isinstance(c1_source, AlerterSource)
        assert c1_source.function == "outCOM"
        assert c1_source.peers == ["http://a.com", "http://b.com"]
        c2_source = ast.bindings[1].source
        assert c2_source.function == "inCOM"
        assert c2_source.peers == ["http://meteo.com"]

    def test_let_clause(self):
        ast = parse_subscription(METEO_SUBSCRIPTION)
        assert len(ast.lets) == 1
        duration = ast.lets[0]
        assert duration.name == "duration"
        assert [(sign, term.detail) for sign, term in duration.terms] == [
            (1, "responseTimestamp"),
            (-1, "callTimestamp"),
        ]
        assert duration.variables() == {"c1"}

    def test_where_clause(self):
        ast = parse_subscription(METEO_SUBSCRIPTION)
        assert len(ast.conditions) == 4
        rendered = [str(condition) for condition in ast.conditions]
        assert "$duration > 10" in rendered
        assert "$c1.callId = $c2.callId" in rendered
        assert ast.conditions[1].variables() == {"c1"}
        assert ast.conditions[3].variables() == {"c1", "c2"}

    def test_return_template(self):
        ast = parse_subscription(METEO_SUBSCRIPTION)
        assert ast.template.tag == "incident"
        assert ast.template.attrib["type"] == "slowAnswer"
        assert ast.template.find("client").text == "{$c1.caller}"
        assert not ast.distinct

    def test_by_clause(self):
        ast = parse_subscription(METEO_SUBSCRIPTION)
        assert ast.by.mode == "channel"
        assert ast.by.target == "alertQoS"
        assert ast.by.publish


class TestParserVariants:
    def test_local_task_subscription(self):
        # the task assigned to peer a.com at the end of Section 3.4
        text = """
        for $e in outCOM(<p>local</p>)
        let $duration := $e.responseTimestamp - $e.callTimestamp
        where $duration > 10 and $e.callMethod = "GetTemperature"
              and $e.callee = "http://meteo.com"
        return $e
        by channel X and subscribe(b.com, #X, X)
        """
        ast = parse_subscription(text)
        assert ast.return_var == "e"
        assert ast.template is None
        assert ast.by.mode == "channel"
        assert ast.by.target == "X"
        assert ast.by.subscriber == ("b.com", "X", "X")

    def test_nested_subscription(self):
        text = """
        for $x in ( for $y in rss(<p>news.com</p>) return <a>{$y}</a> )
        where $x.kind = "add"
        return <fresh>{$x}</fresh>
        """
        ast = parse_subscription(text)
        nested = ast.bindings[0].source
        assert isinstance(nested, NestedSource)
        assert nested.subscription.variables() == ["y"]
        assert nested.subscription.template.tag == "a"

    def test_membership_driven_alerter(self):
        text = """
        for $j in areRegistered(<p>s.com/dht</p>),
            $c in inCOM($j)
        where $c.callMethod = "Get"
        return <seen>{$c.caller}</seen>
        """
        ast = parse_subscription(text)
        assert ast.bindings[0].source.function == "areRegistered"
        assert ast.bindings[1].source.stream_var == "j"

    def test_distinct_return(self):
        ast = parse_subscription(
            "for $y in rss(<p>a.com</p>) return distinct <a>{$y}</a>"
        )
        assert ast.distinct

    def test_path_condition(self):
        text = (
            'for $c1 in inCOM(<p>a.com</p>) '
            'where $c1/alert[@callMethod = "GetTemperature"] '
            "return <hit>{$c1.callId}</hit>"
        )
        ast = parse_subscription(text)
        condition = ast.conditions[0]
        assert condition.op is None
        assert condition.left.kind == "path"
        assert condition.left.detail == 'alert[@callMethod = "GetTemperature"]'

    def test_email_and_file_publication(self):
        ast = parse_subscription(
            'for $x in rss(<p>a.com</p>) return <a>{$x}</a> by email "ops@example.org"'
        )
        assert ast.by.mode == "email"
        ast = parse_subscription(
            'for $x in rss(<p>a.com</p>) return <a>{$x}</a> by file "out.xml"'
        )
        assert ast.by.mode == "file"

    def test_missing_by_clause_is_allowed(self):
        ast = parse_subscription("for $x in rss(<p>a.com</p>) return <a>{$x}</a>")
        assert ast.by is None


class TestParserErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "for $x outCOM(<p>a</p>) return <a/>",  # missing 'in'
            "for $x in outCOM() return <a/>",  # empty args
            "for $x in outCOM(<p>a</p>) return",  # missing template
            "for $x in outCOM(<p>a</p>) return <a/> by carrier 'pigeon'",
            "for $x in outCOM(<p>a</p>) where $x.a = 1 or $x.b = 2 return <a/>",
            "for $x in outCOM(<p>a</p>) return <a/> extra",
            "for $x in outCOM(<p>a</p) return <a/>",  # bad XML
            "where $x.a = 1 return <a/>",  # missing FOR
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(P2PMLSyntaxError):
            parse_subscription(text)

    def test_non_string_input(self):
        with pytest.raises(P2PMLSyntaxError):
            parse_subscription(None)  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "fragment", ["<p>&#xZZ;</p>", "<p b='&#;'/>", "<p>&#99999999;</p>"]
    )
    def test_bad_character_reference_in_alerter_argument(self, fragment):
        text = f"for $x in rss({fragment}) return $x"
        with pytest.raises(P2PMLSyntaxError, match="invalid character reference") as err:
            parse_subscription(text)
        assert err.value.position == text.index("<p")

    def test_bad_character_reference_in_return_template(self):
        text = "for $x in rss(<p>a</p>) return <a>&#xD800x;</a>"
        with pytest.raises(P2PMLSyntaxError, match="invalid character reference") as err:
            parse_subscription(text)
        assert err.value.position == text.index("<a>")
