"""Tokenizer for P2PML.

The lexer is *pull-based*: the parser asks for one token at a time, which
lets the parser switch to XML mode (``read_xml_fragment``) when a clause
embeds an XML fragment (alerter arguments, the RETURN template) and to
path mode (``read_path_tail``) for XPath operands inside WHERE conditions.

Each token costs one match of ``_TOKEN_MATCH`` at the current offset, and
the lexer holds one token of lookahead, so a ``peek`` followed by ``next``
lexes once.  A name starts with a letter or ``_`` and a number with a
decimal digit (``str.isdecimal``), so a digit that is not decimal, such as
``²``, is an unexpected character where a token starts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.p2pml.errors import P2PMLSyntaxError
from repro.xmlmodel.parse import XMLParseError, _Parser as _XMLParser
from repro.xmlmodel.tree import Element

KEYWORDS = {
    "for",
    "in",
    "let",
    "where",
    "and",
    "or",
    "return",
    "distinct",
    "by",
    "publish",
    "as",
    "channel",
    "email",
    "file",
    "rss",
    "webpage",
    "subscribe",
}

# whitespace and '%' comments, which run to end of line (as in the paper's listings);
# possessive, so a failed token match never backtracks into what was skipped
_SKIP = r"(?:[ \t\r\n]+|%[^\n]*\n?)*+"
_SKIP_MATCH = re.compile(_SKIP).match
# the string and number token classes, which the subscription manager's shape
# scan shares (repro.monitor.manager)
STRING, NUMBER = r"'[^']*'|" r'"[^"]*"', r"\d[\d.]*"
# one group per token class; multi-character symbols first so they win
_TOKEN_MATCH = re.compile(
    _SKIP + rf"(?:\$(?P<var>[\w-]+)|(?P<string>{STRING})|(?P<number>{NUMBER})"
    r"|(?P<symbol>:=|!=|<=|>=|[=<>(),;.#@+-])|(?P<name>[^\W\d][\w-]*)|(?P<eof>\Z))"
).match


@dataclass(frozen=True)
class Token:
    type: str  # "keyword" | "ident" | "var" | "string" | "number" | "symbol" | "eof"
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type == "keyword" and self.value == word

    def is_symbol(self, symbol: str) -> bool:
        return self.type == "symbol" and self.value == symbol


class Lexer:
    """Pull-based tokenizer over a P2PML subscription text."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self._ahead: Token | None = None  # the peeked token, which ends at _ahead_end
        self._ahead_end = 0
        self._xml = _XMLParser(source)

    def error(self, message: str, position: int | None = None) -> P2PMLSyntaxError:
        return P2PMLSyntaxError(message, position if position is not None else self.pos, self.source)

    # -- token production -----------------------------------------------------------

    def peek(self) -> Token:
        token = self._ahead
        if token is None:
            pos = self.pos
            token = self._ahead = self.next()
            self._ahead_end, self.pos = self.pos, pos
        return token

    def next(self) -> Token:
        token = self._ahead
        if token is not None:
            self._ahead = None
            self.pos = self._ahead_end
            return token
        source = self.source
        match = _TOKEN_MATCH(source, self.pos)
        if match is None:
            raise self._unexpected()
        kind = match.lastgroup
        start, end = match.span(kind)
        value = source[start:end]
        if kind == "name":
            if value in KEYWORDS:
                kind = "keyword"
            elif value[0] > "\x7f" and not value[0].isalpha():  # '²', '½': not a letter
                raise self._unexpected()
            else:
                lowered = value.lower()
                kind, value = ("keyword", lowered) if lowered in KEYWORDS else ("ident", value)
        elif kind == "var":
            start -= 1
        elif kind == "string":
            value = value[1:-1]
        self.pos = end
        return Token(kind, value, start)

    def _unexpected(self) -> P2PMLSyntaxError:
        """The error for the token at ``pos``, which ``_TOKEN_MATCH`` does not match."""
        start = _SKIP_MATCH(self.source, self.pos).end()
        char = self.source[start]
        if char == "$":
            return self.error("expected a variable name after '$'", start)
        if char in "'\"":
            return self.error("unterminated string literal", start)
        return self.error(f"unexpected character {char!r}", start)

    # -- mode switches -------------------------------------------------------------------

    def at_xml_fragment(self) -> bool:
        """True when the next non-space character starts an XML element."""
        self.pos = _SKIP_MATCH(self.source, self.pos).end()
        if self.source[self.pos : self.pos + 1] != "<":
            return False
        nxt = self.source[self.pos + 1 : self.pos + 2]
        return bool(nxt) and (nxt.isalpha() or nxt in "_")

    def read_xml_fragment(self) -> Element:
        """Parse the balanced XML element at the current position, where
        ``at_xml_fragment`` has found one."""
        self._ahead = None
        parser = self._xml
        parser.pos = self.pos
        try:
            element = parser.parse_element()
        except XMLParseError as exc:  # carries its own location info
            raise self.error(f"invalid XML fragment: {exc}", self.pos) from exc
        self.pos = parser.pos
        return element

    def read_path_tail(self) -> str:
        """Read an XPath tail (``/step[...]...``) starting at the current position.

        Consumes characters until a whitespace, comma, closing parenthesis or
        semicolon at bracket depth zero.
        """
        self._ahead = None
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
