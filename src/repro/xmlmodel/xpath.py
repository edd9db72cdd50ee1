"""The XPath subset used by P2PM.

Subscriptions (Section 2 of the paper), the YFilter automaton (Section 4)
and the Stream Definition Database queries (Section 5) all use a common
fragment of XPath:

* child (``/``) and descendant-or-self (``//``) axes,
* name tests, the wildcard ``*``, attribute tests ``@name`` and ``text()``,
* predicates combining comparisons (``=``, ``!=``, ``<``, ``<=``, ``>``,
  ``>=``) between attributes, relative paths, ``text()`` and literals, with
  ``and`` / ``or``,
* existence predicates on relative paths, e.g. ``/Stream[Operator/inCom]``.

The grammar is parsed into a list of :class:`Step` objects so that the
YFilter NFA can be built directly from the parsed form.

Each rule of the dialect has one implementation here.  :meth:`XPath.select`
is the only evaluator (:meth:`XPath.matches` is ``bool`` of it), and
:func:`compare` the only comparison rule: as numbers when both sides parse
as numbers (:func:`as_number`), as strings otherwise, through the one
operator table :data:`COMPARATORS`, which the filter's simple and computed
conditions (:mod:`repro.filtering.conditions`) dispatch through too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.xmlmodel.tree import Element


class XPathError(ValueError):
    """Raised for syntax errors in path expressions."""


# --------------------------------------------------------------------------- #
# Tokenizer
# --------------------------------------------------------------------------- #

_PUNCT = ("//", "/", "[", "]", "(", ")", "@", "!=", "<=", ">=", "=", "<", ">")


def _tokenize(expression: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(expression)
    while i < n:
        ch = expression[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "'\"":
            end = expression.find(ch, i + 1)
            if end == -1:
                raise XPathError(f"unterminated string literal in {expression!r}")
            tokens.append(expression[i : end + 1])
            i = end + 1
            continue
        matched = False
        for punct in _PUNCT:
            if expression.startswith(punct, i):
                tokens.append(punct)
                i += len(punct)
                matched = True
                break
        if matched:
            continue
        if ch.isalnum() or ch in "_.$*-":
            start = i
            while i < n and (expression[i].isalnum() or expression[i] in "_.$*-:"):
                i += 1
            tokens.append(expression[start:i])
            continue
        raise XPathError(f"unexpected character {ch!r} in {expression!r}")
    return tokens


# --------------------------------------------------------------------------- #
# AST
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Comparison:
    """A comparison or existence test inside a predicate."""

    left: "Operand"
    op: str | None  # None => existence test on `left`
    right: "Operand | None" = None

    def evaluate(self, node: Element) -> bool:
        left_values = self.left.values(node)
        if self.op is None:
            return bool(left_values)
        assert self.right is not None
        right_values = self.right.values(node)
        for lv in left_values:
            for rv in right_values:
                if compare(lv, self.op, rv):
                    return True
        return False


@dataclass(frozen=True)
class BooleanExpr:
    """Conjunction/disjunction tree over comparisons."""

    kind: str  # "and" | "or" | "leaf"
    children: tuple["BooleanExpr", ...] = ()
    leaf: Comparison | None = None

    def evaluate(self, node: Element) -> bool:
        if self.kind == "leaf":
            assert self.leaf is not None
            return self.leaf.evaluate(node)
        if self.kind == "and":
            return all(child.evaluate(node) for child in self.children)
        return any(child.evaluate(node) for child in self.children)


@dataclass(frozen=True)
class Operand:
    """One side of a comparison: attribute, literal, text() or relative path."""

    kind: str  # "attribute" | "literal" | "text" | "path"
    value: object = None

    def values(self, node: Element) -> list[str]:
        if self.kind == "literal":
            return [str(self.value)]
        if self.kind == "attribute":
            attr = node.attrib.get(str(self.value))
            return [attr] if attr is not None else []
        if self.kind == "text":
            return [node.text] if node.text is not None else []
        assert isinstance(self.value, XPath)
        results = self.value.select(node, relative=True)
        out: list[str] = []
        for result in results:
            if isinstance(result, Element):
                if result.text is not None:
                    out.append(result.text)
                else:
                    out.append("")
            else:
                out.append(str(result))
        return out


@dataclass(frozen=True)
class Step:
    """One location step: axis + node test + predicates."""

    axis: str  # "child" | "descendant"
    test: str  # element name, "*", "@name" or "text()"
    predicates: tuple[BooleanExpr, ...] = field(default_factory=tuple)

    @property
    def is_attribute(self) -> bool:
        return self.test.startswith("@")

    @property
    def is_text(self) -> bool:
        return self.test == "text()"

    def name_matches(self, tag: str) -> bool:
        return self.test == "*" or self.test == tag

    def predicates_match(self, node: Element) -> bool:
        return all(pred.evaluate(node) for pred in self.predicates)


#: The comparison operators, one function each: XPath predicates, the
#: filter's simple and computed conditions and the P2PML parser all read it.
COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def as_number(value: str) -> float | None:
    """``value`` as a number, or None when it does not parse as one."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def compare(left: str, op: str, right: str) -> bool:
    """The comparison rule: as numbers when both sides parse as numbers,
    as strings otherwise."""
    lnum, rnum = as_number(left), as_number(right)
    if lnum is not None and rnum is not None:
        return COMPARATORS[op](lnum, rnum)
    return COMPARATORS[op](left, right)


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #


class _PathParser:
    def __init__(self, expression: str) -> None:
        self.expression = expression
        self.tokens = _tokenize(expression)
        self.pos = 0

    def error(self, message: str) -> XPathError:
        return XPathError(f"{message} in {self.expression!r}")

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of expression")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise self.error(f"expected {token!r}, got {got!r}")

    # -- grammar -----------------------------------------------------------

    def parse(self) -> "XPath":
        absolute = False
        variable: str | None = None
        steps: list[Step] = []
        token = self.peek()
        if token is not None and token.startswith("$"):
            variable = self.next()[1:]
            token = self.peek()
        if token in ("/", "//"):
            absolute = True
        else:
            # relative path: first step has implicit child axis
            steps.append(self.parse_step("child"))
        while self.peek() in ("/", "//"):
            axis = "descendant" if self.next() == "//" else "child"
            steps.append(self.parse_step(axis))
        if self.pos != len(self.tokens):
            raise self.error(f"trailing tokens starting at {self.peek()!r}")
        if not steps:
            raise self.error("empty path")
        return XPath(self.expression, tuple(steps), absolute=absolute, variable=variable)

    def parse_step(self, axis: str) -> Step:
        token = self.next()
        if token == "@":
            test = "@" + self.next()
        elif token == "text":
            self.expect("(")
            self.expect(")")
            test = "text()"
        else:
            test = token
        predicates: list[BooleanExpr] = []
        while self.peek() == "[":
            self.next()
            predicates.append(self.parse_boolean())
            self.expect("]")
        return Step(axis, test, tuple(predicates))

    def parse_boolean(self) -> BooleanExpr:
        left = self.parse_conjunction()
        children = [left]
        while self.peek() == "or":
            self.next()
            children.append(self.parse_conjunction())
        if len(children) == 1:
            return children[0]
        return BooleanExpr("or", tuple(children))

    def parse_conjunction(self) -> BooleanExpr:
        left = self.parse_comparison()
        children = [left]
        while self.peek() == "and":
            self.next()
            children.append(self.parse_comparison())
        if len(children) == 1:
            return children[0]
        return BooleanExpr("and", tuple(children))

    def parse_comparison(self) -> BooleanExpr:
        left = self.parse_operand()
        if self.peek() in COMPARATORS:
            op = self.next()
            right = self.parse_operand()
            return BooleanExpr("leaf", leaf=Comparison(left, op, right))
        return BooleanExpr("leaf", leaf=Comparison(left, None))

    def parse_operand(self) -> Operand:
        token = self.peek()
        if token is None:
            raise self.error("expected operand")
        if token == "@":
            self.next()
            return Operand("attribute", self.next())
        if token.startswith(("'", '"')):
            self.next()
            return Operand("literal", token[1:-1])
        if token == "text":
            self.next()
            self.expect("(")
            self.expect(")")
            return Operand("text")
        if as_number(token) is not None:
            self.next()
            return Operand("literal", token)
        # relative path operand
        steps: list[Step] = [self.parse_step("child")]
        while self.peek() in ("/", "//"):
            axis = "descendant" if self.next() == "//" else "child"
            steps.append(self.parse_step(axis))
        return Operand(
            "path",
            XPath("<relative>", tuple(steps), absolute=False, variable=None),
        )


# --------------------------------------------------------------------------- #
# XPath object
# --------------------------------------------------------------------------- #


class XPath:
    """A compiled path expression.

    Instances are immutable and safe to share between operators.  The parsed
    ``steps`` are public so that the YFilter automaton can be built from them.
    """

    def __init__(
        self,
        expression: str,
        steps: tuple[Step, ...],
        absolute: bool,
        variable: str | None,
    ) -> None:
        self.expression = expression
        self.steps = steps
        self.absolute = absolute
        self.variable = variable

    # -- construction -------------------------------------------------------

    @classmethod
    def compile(cls, expression: str) -> "XPath":
        """Parse ``expression`` into an :class:`XPath`."""
        if not isinstance(expression, str) or not expression.strip():
            raise XPathError("path expression must be a non-empty string")
        return _PathParser(expression.strip()).parse()

    # -- evaluation ----------------------------------------------------------

    def select(
        self, root: Element, relative: bool = False
    ) -> list[Element | str]:
        """Evaluate against ``root`` and return matching nodes / values.

        For absolute paths (``/a/b``) the first step is matched against the
        root element itself, as the root is the document element.  For
        descendant paths (``//a``) and relative evaluation the step is matched
        against children / descendants of the context node.
        """
        first_axis = self.steps[0].axis
        if self.absolute and not relative and first_axis == "child":
            contexts: list[Element] = []
            step = self.steps[0]
            if (
                not step.is_attribute
                and not step.is_text
                and step.name_matches(root.tag)
                and step.predicates_match(root)
            ):
                contexts = [root]
            return self._walk(contexts, self.steps[1:], root)
        return self._walk([root], self.steps, root)

    def matches(self, root: Element) -> bool:
        """True when the path selects at least one node/value of ``root``."""
        return bool(self.select(root))

    def first(self, root: Element) -> Element | str | None:
        results = self.select(root)
        return results[0] if results else None

    def _walk(
        self,
        contexts: Sequence[Element],
        steps: Sequence[Step],
        root: Element,
    ) -> list[Element | str]:
        current: list[Element | str] = list(contexts)
        for step in steps:
            next_nodes: list[Element | str] = []
            for context in current:
                if not isinstance(context, Element):
                    continue  # cannot navigate below an attribute / text value
                if step.is_attribute:
                    # The attribute axis applies to the context node itself
                    # (e.g. /Stream/Stats/@avgVolume reads Stats' attribute);
                    # with // it applies to every descendant-or-self node.
                    name = step.test[1:]
                    holders = context.iter() if step.axis == "descendant" else [context]
                    for holder in holders:
                        value = holder.attrib.get(name)
                        if value is not None:
                            next_nodes.append(value)
                    continue
                if step.is_text:
                    holders = context.iter() if step.axis == "descendant" else [context]
                    for holder in holders:
                        if holder.text is not None:
                            next_nodes.append(holder.text)
                    continue
                candidates: Iterable[Element]
                if step.axis == "descendant":
                    candidates = context.iter()
                else:
                    candidates = context.children
                for candidate in candidates:
                    if step.name_matches(candidate.tag) and step.predicates_match(
                        candidate
                    ):
                        next_nodes.append(candidate)
            current = next_nodes
            if not current:
                return []
        return current

    # -- misc ----------------------------------------------------------------

    def is_linear(self) -> bool:
        """True when the path has no predicates (a pure location path)."""
        return all(not step.predicates for step in self.steps)

    def __repr__(self) -> str:
        return f"XPath({self.expression!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XPath):
            return NotImplemented
        return (
            self.steps == other.steps
            and self.absolute == other.absolute
            and self.variable == other.variable
        )

    def __hash__(self) -> int:
        return hash((self.steps, self.absolute, self.variable))


# --------------------------------------------------------------------------- #
# Module-level conveniences
# --------------------------------------------------------------------------- #


def xpath_select(expression: str, root: Element) -> list[Element | str]:
    """Compile and evaluate ``expression`` against ``root``."""
    return XPath.compile(expression).select(root)


def xpath_matches(expression: str, root: Element) -> bool:
    """True when ``expression`` selects anything in ``root``."""
    return XPath.compile(expression).matches(root)
