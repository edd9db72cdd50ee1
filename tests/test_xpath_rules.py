"""One evaluator, one comparison rule and one reference splitter.

``XPath.matches`` is ``bool(XPath.select(...))``; it used to run a second,
non-recursive existence matcher.  XPath predicates and the filter's simple
conditions compare through the one table ``xpath.COMPARATORS``; each used to
carry its own.  ``Operand.parse`` splits ``$var.attr`` / ``$var/path`` /
``$var`` with ``parse_value_ref``, the splitter of RETURN holes; it used to
split them itself.  Each former implementation is frozen below and is the
reference the generated inputs hold the current one to.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering import SimpleCondition
from repro.p2pml.ast import Operand
from repro.xmlmodel import Element, XPath
from repro.xmlmodel.xpath import COMPARATORS, compare

# -- the existence matcher, as it was ------------------------------------------------


def _iter_subtree(node):
    """Pre-order iteration over ``node`` and its descendants, without recursion."""
    stack = [node]
    pop = stack.pop
    while stack:
        current = pop()
        yield current
        children = current.children
        if children:
            stack.extend(reversed(children))


class FrozenMatcher:
    """Boolean-only evaluator for one :class:`XPath`, built once per path.

    :meth:`XPath.matches` only needs existence, not the selected node list,
    so this matcher propagates a deduplicated frontier step by step using
    explicit stacks (no Python recursion, however deep the document) and
    returns as soon as any node survives the final step.  Its verdict is
    identical to ``bool(XPath.select(root))``.
    """

    __slots__ = ("_first_is_root", "_steps")

    def __init__(self, path):
        # For absolute child-axis paths the first step is matched against the
        # document root itself (mirrors XPath.select).
        self._first_is_root = path.absolute and path.steps[0].axis == "child"
        self._steps = tuple(
            (
                step.axis == "descendant",
                "attr" if step.is_attribute else ("text" if step.is_text else "elem"),
                step.test[1:] if step.is_attribute else step.test,
                step.predicates,
            )
            for step in path.steps
        )

    def matches(self, root):
        steps = self._steps
        start = 0
        frontier = [root]
        if self._first_is_root:
            _desc, kind, test, predicates = steps[0]
            if kind != "elem" or not (test == "*" or test == root.tag):
                return False
            for predicate in predicates:
                if not predicate.evaluate(root):
                    return False
            if len(steps) == 1:
                return True
            start = 1
        last = len(steps) - 1
        for index in range(start, len(steps)):
            descendant, kind, test, predicates = steps[index]
            is_last = index == last
            next_frontier = []
            seen = set()
            for context in frontier:
                if kind == "attr":
                    holders = _iter_subtree(context) if descendant else (context,)
                    for holder in holders:
                        if test in holder.attrib:
                            if is_last:
                                return True
                            break  # attribute values cannot be navigated further
                    continue
                if kind == "text":
                    holders = _iter_subtree(context) if descendant else (context,)
                    for holder in holders:
                        if holder.text is not None:
                            if is_last:
                                return True
                            break  # text values cannot be navigated further
                    continue
                candidates = _iter_subtree(context) if descendant else context.children
                for candidate in candidates:
                    if test != "*" and candidate.tag != test:
                        continue
                    if predicates:
                        ok = True
                        for predicate in predicates:
                            if not predicate.evaluate(candidate):
                                ok = False
                                break
                        if not ok:
                            continue
                    if is_last:
                        return True
                    marker = id(candidate)
                    if marker not in seen:
                        seen.add(marker)
                        next_frontier.append(candidate)
            if is_last:
                return False
            frontier = next_frontier
            if not frontier:
                return False
        return False


# -- the comparison, as it was ----------------------------------------------------------


def _frozen_as_number(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def frozen_compare(left, op, right):
    lnum, rnum = _frozen_as_number(left), _frozen_as_number(right)
    if lnum is not None and rnum is not None:
        lv, rv = lnum, rnum
    else:
        lv, rv = left, right
    if op == "=":
        return lv == rv
    if op == "!=":
        return lv != rv
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    return lv >= rv


# -- Operand.parse, as it was -------------------------------------------------------------


def frozen_operand_parse(text):
    if isinstance(text, Operand):
        return text
    if isinstance(text, (int, float)):
        return Operand("number", value=repr(text))
    text = text.strip()
    if text.startswith("$"):
        body = text[1:]
        if "/" in body and ("." not in body or body.index("/") < body.index(".")):
            var, detail = body.split("/", 1)
            return Operand("path", var=var, detail=detail)
        if "." in body:
            var, detail = body.split(".", 1)
            return Operand("attribute", var=var, detail=detail)
        return Operand("variable", var=body)
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return Operand("literal", value=text[1:-1])
    try:
        float(text)
    except ValueError:
        return Operand("literal", value=text)
    return Operand("number", value=text)


# -- generated paths and trees --------------------------------------------------------------

TAGS = ("a", "b")
ATTRIBUTES = ("x", "y")
#: attribute / text / literal values: numbers in several spellings, padded
#: and non-numeric strings, so both arms of the comparison rule are taken
VALUES = ("1", "2", "10", "2.0", "1e3", "-1", "inf", "nan", " 2 ", "abc", "b", "")

values = st.sampled_from(VALUES)


@st.composite
def trees(draw, depth=3):
    attrib = draw(st.dictionaries(st.sampled_from(ATTRIBUTES), values, max_size=2))
    text = draw(st.none() | values)
    children = draw(st.lists(trees(depth - 1), max_size=3)) if depth > 0 else []
    return Element(draw(st.sampled_from(TAGS)), attrib, children, text)


def relative_paths():
    step = st.sampled_from(TAGS + ("*",))
    return st.lists(step, min_size=1, max_size=2).flatmap(
        lambda names: st.lists(st.sampled_from(("/", "//")), min_size=len(names) - 1, max_size=len(names) - 1).map(
            lambda axes: names[0] + "".join(axis + name for axis, name in zip(axes, names[1:]))
        )
    )


operands = st.one_of(
    st.sampled_from(ATTRIBUTES).map("@".__add__),
    st.just("text()"),
    relative_paths(),
    values.map(lambda value: f"'{value}'"),
    st.sampled_from(("1", "2", "10", "2.5")),
)
comparisons = st.tuples(operands, st.sampled_from(tuple(COMPARATORS)), operands).map(" ".join)
existence_tests = st.one_of(relative_paths(), st.sampled_from(ATTRIBUTES).map("@".__add__), st.just("text()"))
leaves = comparisons | existence_tests
predicates = st.lists(leaves, min_size=1, max_size=2).flatmap(
    lambda tests: st.lists(st.sampled_from((" and ", " or ")), min_size=len(tests) - 1, max_size=len(tests) - 1).map(
        lambda joins: tests[0] + "".join(join + test for join, test in zip(joins, tests[1:]))
    )
)


@st.composite
def paths(draw):
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        axis = draw(st.sampled_from(("/", "//")))
        step = draw(st.sampled_from(TAGS + ("*",)))
        step += "".join(f"[{predicate}]" for predicate in draw(st.lists(predicates, max_size=1)))
        steps.append(axis + step)
    tail = draw(st.sampled_from(("", "/@x", "//@y", "/text()", "//text()")))
    expression = "".join(steps) + tail
    if draw(st.booleans()):  # a relative path: its first step reads the root's children
        expression = expression.lstrip("/")
    return expression


@settings(max_examples=250, deadline=None)
@given(paths(), trees())
def test_matches_is_the_frozen_matcher_and_bool_of_select(expression, tree):
    path = XPath.compile(expression)
    verdict = path.matches(tree)
    assert verdict == FrozenMatcher(path).matches(tree), expression
    assert verdict == bool(path.select(tree)), expression


# -- generated comparisons ---------------------------------------------------------------------

compared_values = st.one_of(
    values,
    st.integers(-1000, 1000).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(str),
    st.sampled_from(("1e3", "1E3", "-inf", "+5", "0x10", "1_000")),
    st.tuples(st.sampled_from(("", " ", "\t")), st.integers(-5, 5).map(str), st.sampled_from(("", " ", "\n"))).map("".join),
    st.text(alphabet="ab1. ", max_size=4),
)


@settings(max_examples=1000, deadline=None)
@given(compared_values, st.sampled_from(tuple(COMPARATORS)), compared_values)
def test_compare_is_the_frozen_rule_and_the_simple_condition(left, op, right):
    expected = frozen_compare(left, op, right)
    assert compare(left, op, right) == expected
    assert SimpleCondition("v", op, right).holds(left) == expected


# -- generated references -----------------------------------------------------------------------


def test_every_short_reference_splits_as_before():
    for length in range(6):
        for body in product("a./b ", repeat=length):
            text = "$" + "".join(body)
            assert Operand.parse(text) == frozen_operand_parse(text), text


@settings(max_examples=500, deadline=None)
@given(
    st.text(alphabet=" \t", max_size=2),
    st.sampled_from(("$", "", '"')),
    st.text(alphabet="ab./$1-@\"'", max_size=10),
    st.text(alphabet=" \t", max_size=2),
)
def test_generated_operands_parse_as_before(lead, prefix, body, trail):
    text = lead + prefix + body + trail
    assert Operand.parse(text) == frozen_operand_parse(text), text
