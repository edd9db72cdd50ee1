"""Recursive-descent parser for P2PML subscriptions."""

from __future__ import annotations

from repro.p2pml.ast import (
    AlerterSource,
    ByClause,
    Condition,
    ForBinding,
    LetDefinition,
    NestedSource,
    Operand,
    SubscriptionAST,
)
from repro.p2pml.errors import P2PMLSyntaxError
from repro.p2pml.lexer import Lexer, Token
from repro.xmlmodel.xpath import COMPARATORS


def parse_subscription(text: str) -> SubscriptionAST:
    """Parse a P2PML subscription and return its AST."""
    if not isinstance(text, str) or not text.strip():
        raise P2PMLSyntaxError("subscription text must be a non-empty string")
    parser = _Parser(Lexer(text))
    subscription = parser.parse_subscription()
    parser.expect_end()
    return subscription


class _Parser:
    def __init__(self, lexer: Lexer) -> None:
        self.lexer = lexer
        self.peek = lexer.peek
        self.next = lexer.next

    # -- token helpers -----------------------------------------------------------

    def error(self, message: str, token: Token | None = None) -> P2PMLSyntaxError:
        position = token.position if token is not None else self.lexer.pos
        return P2PMLSyntaxError(message, position, self.lexer.source)

    def expect_keyword(self, word: str) -> Token:
        token = self.next()
        if not token.is_keyword(word):
            raise self.error(f"expected {word!r}, got {token.value!r}", token)
        return token

    def expect_symbol(self, symbol: str) -> Token:
        token = self.next()
        if not token.is_symbol(symbol):
            raise self.error(f"expected {symbol!r}, got {token.value!r}", token)
        return token

    def expect_type(self, token_type: str) -> Token:
        token = self.next()
        if token.type != token_type:
            raise self.error(f"expected a {token_type}, got {token.value!r}", token)
        return token

    def expect_end(self) -> None:
        token = self.peek()
        if token.is_symbol(";"):
            self.next()
            token = self.peek()
        if token.type != "eof":
            raise self.error(f"unexpected trailing content {token.value!r}", token)

    # -- grammar ----------------------------------------------------------------------

    def parse_subscription(self) -> SubscriptionAST:
        bindings = self.parse_for_clause()
        lets: list[LetDefinition] = []
        conditions: list[Condition] = []
        if self.peek().is_keyword("let"):
            lets = self.parse_let_clause()
        if self.peek().is_keyword("where"):
            conditions = self.parse_where_clause()
        template, return_var, distinct = self.parse_return_clause()
        by = None
        if self.peek().is_keyword("by"):
            by = self.parse_by_clause()
        return SubscriptionAST(
            bindings=bindings,
            lets=lets,
            conditions=conditions,
            template=template,
            return_var=return_var,
            distinct=distinct,
            by=by,
        )

    # FOR ------------------------------------------------------------------------------

    def parse_for_clause(self) -> list[ForBinding]:
        self.expect_keyword("for")
        bindings = [self.parse_binding()]
        while self.peek().is_symbol(","):
            self.next()
            bindings.append(self.parse_binding())
        return bindings

    def parse_binding(self) -> ForBinding:
        var = self.expect_type("var").value
        self.expect_keyword("in")
        return ForBinding(var=var, source=self.parse_source())

    def parse_source(self) -> AlerterSource | NestedSource:
        token = self.peek()
        if token.is_symbol("("):
            self.next()
            nested = self.parse_subscription()
            self.expect_symbol(")")
            return NestedSource(nested)
        # Alerter names may collide with keywords ("rss", "file", ...): in this
        # position only an alerter call or a nested subscription is possible,
        # so keywords other than clause openers are accepted as names.
        if token.type == "ident" or (
            token.type == "keyword"
            and token.value not in ("for", "let", "where", "return", "by")
        ):
            function = self.next().value
        else:
            raise self.error(
                f"expected an alerter name or a nested subscription, got {token.value!r}",
                token,
            )
        self.expect_symbol("(")
        peer_args = []
        stream_var = None
        if self.peek().type == "var":
            stream_var = self.next().value
        else:
            while self.lexer.at_xml_fragment():
                peer_args.append(self.lexer.read_xml_fragment())
            if not peer_args:
                raise self.error(
                    f"alerter {function!r} needs XML peer arguments or a stream variable"
                )
        self.expect_symbol(")")
        return AlerterSource(function=function, peer_args=peer_args, stream_var=stream_var)

    # LET ------------------------------------------------------------------------------

    def parse_let_clause(self) -> list[LetDefinition]:
        self.expect_keyword("let")
        definitions = [self.parse_let_definition()]
        while self.peek().is_symbol(","):
            self.next()
            definitions.append(self.parse_let_definition())
        return definitions

    def parse_let_definition(self) -> LetDefinition:
        name = self.expect_type("var").value
        self.expect_symbol(":=")
        terms: list[tuple[int, Operand]] = [(1, self.parse_operand())]
        token = self.peek()
        while token.is_symbol("+") or token.is_symbol("-"):
            sign = 1 if self.next().value == "+" else -1
            terms.append((sign, self.parse_operand()))
            token = self.peek()
        return LetDefinition(name=name, terms=terms)

    # WHERE ----------------------------------------------------------------------------

    def parse_where_clause(self) -> list[Condition]:
        self.expect_keyword("where")
        conditions = [self.parse_condition()]
        token = self.peek()
        while token.is_keyword("and"):
            self.next()
            conditions.append(self.parse_condition())
            token = self.peek()
        if token.is_keyword("or"):
            raise self.error("only conjunctions of conditions are supported")
        return conditions

    def parse_condition(self) -> Condition:
        left = self.parse_operand()
        token = self.peek()
        if token.type == "symbol" and token.value in COMPARATORS:
            op = self.next().value
            right = self.parse_operand()
            return Condition(left=left, op=op, right=right)
        return Condition(left=left)

    def parse_operand(self) -> Operand:
        token = self.next()
        if token.type == "var":
            # dot notation, path tail, or a bare variable
            if self.lexer.source[self.lexer.pos : self.lexer.pos + 1] == "/":
                path = self.lexer.read_path_tail()
                return Operand(kind="path", var=token.value, detail=path.lstrip("/"))
            if self.peek().is_symbol("."):
                self.next()
                attribute = self.expect_type("ident").value
                return Operand(kind="attribute", var=token.value, detail=attribute)
            return Operand(kind="variable", var=token.value)
        if token.type == "string":
            return Operand(kind="literal", value=token.value)
        if token.type == "number":
            return Operand(kind="number", value=token.value)
        if token.type == "ident":
            # unquoted word (e.g. a bare URL fragment); treat as a literal
            return Operand(kind="literal", value=token.value)
        raise self.error(f"expected an operand, got {token.value!r}", token)

    # RETURN ----------------------------------------------------------------------------

    def parse_return_clause(self):
        self.expect_keyword("return")
        distinct = False
        if self.peek().is_keyword("distinct"):
            self.next()
            distinct = True
        if self.lexer.at_xml_fragment():
            return self.lexer.read_xml_fragment(), None, distinct
        token = self.peek()
        if token.type == "var":
            self.next()
            return None, token.value, distinct
        raise self.error("RETURN expects an XML template or a variable", token)

    # BY --------------------------------------------------------------------------------

    def parse_by_clause(self) -> ByClause:
        self.expect_keyword("by")
        token = self.next()
        publish = False
        if token.is_keyword("publish"):
            publish = True
            self.expect_keyword("as")
            token = self.next()
        if token.type != "keyword" or token.value not in (
            "channel",
            "email",
            "file",
            "rss",
            "webpage",
        ):
            raise self.error(
                f"expected a publication mode (channel/email/file/rss/webpage), got {token.value!r}",
                token,
            )
        mode = token.value
        target = self.parse_name()
        clause = ByClause(mode=mode, target=target, publish=publish or mode == "channel")
        if self.peek().is_keyword("and"):
            self.next()
            self.expect_keyword("subscribe")
            self.expect_symbol("(")
            peer = self.parse_name()
            self.expect_symbol(",")
            self.expect_symbol("#")
            node = self.parse_name()
            self.expect_symbol(",")
            channel = self.parse_name()
            self.expect_symbol(")")
            clause.subscriber = (peer, node, channel)
        return clause

    def parse_name(self) -> str:
        """A name: a quoted string, or dotted identifiers like ``b.com``."""
        token = self.next()
        if token.type == "string":
            return token.value
        if token.type not in ("ident", "keyword", "number"):
            raise self.error(f"expected a name, got {token.value!r}", token)
        parts = [token.value]
        while self.peek().is_symbol("."):
            self.next()
            parts.append(self.expect_type("ident").value)
        return ".".join(parts)
