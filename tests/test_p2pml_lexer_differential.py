"""The one-match-per-token lexer reads P2PML as the per-character lexer did.

``FrozenLexer`` below is the lexer as it was before ``Lexer`` matched one
compiled pattern per token: a scan character by character, whose ``peek``
lexes the token that ``next`` then lexes again.  It is the reference.  Both
must give equal token streams (under any mix of ``peek`` and ``next``),
equal ASTs through the same grammar (``_Parser``) and equal
``P2PMLSyntaxError`` messages and positions, on every P2PML text of the
repository -- the benchmark decks, the examples, the chaos catalog and the
string literals of the tests -- and on generated mutations of them.

One difference is deliberate.  The frozen lexer read a token starting with a
character that ``str.isdigit`` accepts as a number, so ``²`` was the number
``"²"`` and ``1²`` the number ``"1²"``.  ``Lexer`` numbers are decimal
(``str.isdecimal``, the regular expression ``\\d``): a digit that is not
decimal ends a number, and where a token starts with one the lexer raises
``unexpected character``.  ``assert_same_parse`` and ``assert_same_tokens``
allow a difference only where such a digit stopped a token.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2pml import P2PMLSyntaxError, parse_subscription
from repro.p2pml.lexer import KEYWORDS, Lexer, Token
from repro.p2pml.parser import _Parser
from repro.scenarios.catalog import make_scenario, scenario_names
from repro.workloads.meteo import MeteoScenario
from repro.xmlmodel.parse import XMLParseError, _Parser as _XMLParser

ROOT = Path(__file__).resolve().parent.parent

# -- the lexer, as it was --------------------------------------------------------------

_SYMBOLS = (":=", "!=", "<=", ">=", "=", "<", ">", "(", ")", ",", ";", ".", "#", "@", "+", "-")


class FrozenLexer:
    """Pull-based tokenizer over a P2PML subscription text."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0

    def error(self, message: str, position: int | None = None) -> P2PMLSyntaxError:
        return P2PMLSyntaxError(message, position if position is not None else self.pos, self.source)

    def _skip_whitespace_and_comments(self) -> None:
        while self.pos < len(self.source):
            char = self.source[self.pos]
            if char in " \t\r\n":
                self.pos += 1
            elif self.source.startswith("%", self.pos):
                end = self.source.find("\n", self.pos)
                self.pos = len(self.source) if end == -1 else end + 1
            else:
                return

    def peek(self) -> Token:
        saved = self.pos
        token = self.next()
        self.pos = saved
        return token

    def next(self) -> Token:
        self._skip_whitespace_and_comments()
        if self.pos >= len(self.source):
            return Token("eof", "", self.pos)
        start = self.pos
        char = self.source[start]

        if char == "$":
            self.pos += 1
            name = self._read_name()
            if not name:
                raise self.error("expected a variable name after '$'", start)
            return Token("var", name, start)

        if char in "'\"":
            end = self.source.find(char, start + 1)
            if end == -1:
                raise self.error("unterminated string literal", start)
            self.pos = end + 1
            return Token("string", self.source[start + 1 : end], start)

        if char.isdigit():
            self.pos += 1
            while self.pos < len(self.source) and (
                self.source[self.pos].isdigit() or self.source[self.pos] == "."
            ):
                self.pos += 1
            return Token("number", self.source[start : self.pos], start)

        for symbol in _SYMBOLS:
            if self.source.startswith(symbol, start):
                self.pos = start + len(symbol)
                return Token("symbol", symbol, start)

        if char.isalpha() or char == "_":
            name = self._read_name()
            if name.lower() in KEYWORDS:
                return Token("keyword", name.lower(), start)
            return Token("ident", name, start)

        raise self.error(f"unexpected character {char!r}")

    def _read_name(self) -> str:
        start = self.pos
        while self.pos < len(self.source):
            char = self.source[self.pos]
            if char.isalnum() or char in "_-":
                self.pos += 1
            else:
                break
        return self.source[start : self.pos]

    def at_xml_fragment(self) -> bool:
        self._skip_whitespace_and_comments()
        if self.pos >= len(self.source) or self.source[self.pos] != "<":
            return False
        nxt = self.source[self.pos + 1 : self.pos + 2]
        return bool(nxt) and (nxt.isalpha() or nxt in "_")

    def read_xml_fragment(self):
        self._skip_whitespace_and_comments()
        parser = _XMLParser(self.source)
        parser.pos = self.pos
        try:
            element = parser.parse_element()
        except XMLParseError as exc:
            raise self.error(f"invalid XML fragment: {exc}", self.pos) from exc
        self.pos = parser.pos
        return element

    def read_path_tail(self) -> str:
        start = self.pos
        depth = 0
        in_string: str | None = None
        while self.pos < len(self.source):
            char = self.source[self.pos]
            if in_string:
                if char == in_string:
                    in_string = None
            elif char in "'\"":
                in_string = char
            elif char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif depth == 0 and (char in " \t\r\n,;)" or char == "{" or char == "}"):
                break
            self.pos += 1
        if in_string:
            raise self.error("unterminated string inside path expression", start)
        return self.source[start : self.pos]


# -- what a lexer makes of a text -------------------------------------------------------


def parse_with(lexer_class, text: str):
    """``parse_subscription`` with the given lexer: the AST, or the error."""
    parser = _Parser(lexer_class(text))
    try:
        subscription = parser.parse_subscription()
        parser.expect_end()
    except P2PMLSyntaxError as error:
        return ("error", str(error), error.position)
    return ("ast", subscription)


def token_stream(lexer_class, text: str, moves: str):
    """The tokens and offsets a lexer reports when ``moves + "n"`` (``p`` for
    ``peek``, ``n`` for ``next``, repeated) drives it, up to end of input or
    the error."""
    lexer = lexer_class(text)
    seen = []
    moves += "n"
    for step in range((len(text) + 2) * len(moves)):
        move = moves[step % len(moves)]
        try:
            token = lexer.peek() if move == "p" else lexer.next()
        except P2PMLSyntaxError as error:
            return seen + [("error", str(error), error.position)]
        seen.append((move, token, lexer.pos))
        if token.type == "eof" and move == "n":
            return seen
    raise AssertionError(f"no end of input after {step} moves")


_DECIMAL_RUN = re.compile(r"\d[\d.]*")


def at_non_decimal_digit(text: str, position: int) -> bool:
    """A non-decimal digit sits at ``position``, or ends the decimal number there."""
    run = _DECIMAL_RUN.match(text, position)
    at = run.end() if run else position
    return at < len(text) and text[at].isdigit() and not text[at].isdecimal()


def assert_same_parse(expected, got, text: str) -> None:
    """Equal outcomes, or ``got`` is an error where a non-decimal digit stopped a token."""
    if got != expected:
        assert got[0] == "error" and at_non_decimal_digit(text, got[2]), (text, expected, got)


def assert_same_tokens(expected, got, text: str) -> None:
    """Equal streams, or equal up to where a non-decimal digit stopped a token."""
    for old, new in zip(expected, got):
        if old != new:
            position = new[2] if new[0] == "error" else new[1].position
            assert at_non_decimal_digit(text, position), (text, old, new)
            return
    assert len(got) == len(expected), (text, expected, got)


def check(text: str, moves: str = "pnnp") -> None:
    assert_same_parse(parse_with(FrozenLexer, text), parse_with(Lexer, text), text)
    assert_same_tokens(token_stream(FrozenLexer, text, moves), token_stream(Lexer, text, moves), text)


# -- every P2PML text of the repository ----------------------------------------------


def deck_texts() -> set[str]:
    sys.path.insert(0, str(ROOT))
    try:
        from perf import decks
    finally:
        sys.path.remove(str(ROOT))
    specs = [decks.FanoutSub(threshold) for threshold in range(1, 20, 2)]
    specs += [decks.filter_sub(k) for k in range(240)]  # every variant: period 240
    specs += decks.ingest_variants(150)
    return {spec.text() for spec in specs}


def catalog_texts() -> set[str]:
    texts = {make_scenario(name)._subscription_text(["s0", "s1"]) for name in scenario_names()}
    return texts | {MeteoScenario().subscription_text()}


def _literals(node) -> list[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):  # an f-string: fill each field with a value, or a peer
        return [
            "".join(part.value if isinstance(part, ast.Constant) else field for part in node.values)
            for field in ("v0", "<p>v0</p>")
        ]
    return []


def literal_texts(*patterns: str) -> set[str]:
    """The string literals, f-strings and their parts of the matched files
    that look like P2PML: they hold a ``$`` or start with ``for``."""
    texts = set()
    for pattern in patterns:
        for path in sorted(ROOT.glob(pattern)):
            for node in ast.walk(ast.parse(path.read_text())):
                for text in _literals(node):
                    if "$" in text or text.lstrip().lower().startswith("for"):
                        texts.add(text)
    return texts


CORPORA = {
    "decks": deck_texts,
    "catalog": catalog_texts,
    "examples": lambda: literal_texts("examples/*.py"),
    "tests": lambda: literal_texts("tests/*.py", "src/repro/workloads/*.py"),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_every_repository_text_lexes_and_parses_as_before(corpus):
    texts = sorted(CORPORA[corpus]())
    assert len(texts) >= {"decks": 240, "catalog": 2, "examples": 10, "tests": 200}[corpus]
    parsed = 0
    for text in texts:
        check(text)
        parsed += parse_with(Lexer, text)[0] == "ast"
    assert parsed >= {"decks": 240, "catalog": 2, "examples": 6, "tests": 60}[corpus]


# -- generated texts -------------------------------------------------------------------

SEEDS = sorted(deck_texts() | catalog_texts() | literal_texts("examples/*.py"))
ALPHABET = "$'\"%\n<>=!:;.,()#@+-/[]{}" + "0123456789" + "é٣²" + " \tax_"


@st.composite
def mutations(draw) -> str:
    """A repository text with a few characters inserted, deleted or replaced."""
    text = draw(st.sampled_from(SEEDS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        char = draw(st.sampled_from(ALPHABET))
        if edit == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + (char if edit == "replace" else "") + text[at + 1 :]
    return text


@settings(max_examples=400, deadline=None)
@given(mutations(), st.text(alphabet="pn", max_size=4))
def test_mutated_texts_lex_and_parse_as_before(text, moves):
    check(text, moves)


PIECES = [
    "for ", "FOR ", "$x", "$", "in ", "rss(", "<p>a</p>", ")", " where ", "let ", ":=", " and ",
    " return ", "Return", "<a>{$x.b}</a>", " by ", "publish as channel ", "'q'", '"q', "% c\n",
    ".", "/b[@c]", "éa",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES) | st.sampled_from(ALPHABET), min_size=1, max_size=20),
       st.text(alphabet="pn", max_size=4))
def test_generated_texts_lex_and_parse_as_before(pieces, moves):
    check("".join(pieces), moves)


# -- the one deliberate difference --------------------------------------------------------


@pytest.mark.parametrize("number", ["²", "1²", "①"])
def test_a_digit_that_is_not_decimal_starts_no_token(number):
    text = f"for $x in rss(<p>a</p>) where $x.a > {number} return $x"
    at = text.index(number) + len(number) - 1
    assert parse_with(FrozenLexer, text)[0] == "ast"  # the frozen lexer read a number
    with pytest.raises(P2PMLSyntaxError, match=f"unexpected character '{text[at]}'") as err:
        parse_subscription(text)
    assert err.value.position == at


def test_decimal_digits_of_any_script_are_numbers_and_superscripts_end_no_name():
    subscription = parse_subscription("for $x² in rss(<p>a</p>) where $x².a² > ٣.5 return $x²")
    assert subscription.bindings[0].var == "x²"
    condition = subscription.conditions[0]
    assert (condition.left.detail, condition.right.value) == ("a²", "٣.5")
