"""Simple conditions, their registry, and filter subscriptions.

A *simple condition* is an equality or inequality between an attribute of
the root node of a stream item and a constant, e.g.
``callee = "http://meteo.com"`` (Section 4).  The AES algorithm requires a
total order over simple conditions; the :class:`ConditionRegistry` interns
syntactically-equal conditions and assigns them stable integer identifiers
that provide this order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.xmlmodel.xpath import COMPARATORS, XPath, as_number

#: Comparison operators supported in simple conditions.
OPERATORS = tuple(COMPARATORS)


def _compile_simple(op: str, value: str) -> Callable[[str], bool]:
    """Build the per-value predicate closure for a simple condition.

    The constant is parsed and the operator dispatched exactly once, at
    subscription-registration time; the hot path then runs one closure call
    per (attribute value, condition) pair.  It is the rule of
    :func:`repro.xmlmodel.xpath.compare`, with the constant's side decided
    once: numeric comparison when *both* sides parse as numbers, string
    comparison otherwise.
    """
    compare = COMPARATORS[op]
    right_num = as_number(value)
    if right_num is None:

        def holds(actual: str) -> bool:
            return compare(actual, value)

    else:

        def holds(actual: str) -> bool:
            try:
                return compare(float(actual), right_num)
            except (TypeError, ValueError):
                return compare(actual, value)

    return holds


@dataclass(frozen=True)
class SimpleCondition:
    """``attribute op constant`` over the root attributes of a stream item."""

    attribute: str
    op: str
    value: str
    #: Compiled predicate over the attribute's value; excluded from
    #: equality/hash so interning by (attribute, op, value) is unaffected.
    holds: Callable[[str], bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise ValueError(
                f"unsupported operator {self.op!r}; expected one of {OPERATORS}"
            )
        object.__setattr__(self, "value", str(self.value))
        object.__setattr__(self, "holds", _compile_simple(self.op, self.value))

    def evaluate(self, attributes: dict[str, str]) -> bool:
        """True when the condition holds for the given root attributes."""
        actual = attributes.get(self.attribute)
        if actual is None:
            return False
        return self.holds(actual)

    def __str__(self) -> str:
        return f"{self.attribute} {self.op} {self.value!r}"


class ConditionRegistry:
    """Interns simple conditions and assigns them stable, ordered identifiers."""

    def __init__(self) -> None:
        self._by_condition: dict[SimpleCondition, int] = {}
        self._by_id: list[SimpleCondition] = []
        self._by_attribute: dict[str, list[tuple[int, SimpleCondition]]] = {}

    def register(self, condition: SimpleCondition) -> int:
        """Return the identifier of ``condition``, registering it if new."""
        existing = self._by_condition.get(condition)
        if existing is not None:
            return existing
        condition_id = len(self._by_id)
        self._by_condition[condition] = condition_id
        self._by_id.append(condition)
        self._by_attribute.setdefault(condition.attribute, []).append(
            (condition_id, condition)
        )
        return condition_id

    def condition(self, condition_id: int) -> SimpleCondition:
        return self._by_id[condition_id]

    def id_of(self, condition: SimpleCondition) -> int:
        return self._by_condition[condition]

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, condition: SimpleCondition) -> bool:
        return condition in self._by_condition

    def conditions(self) -> list[SimpleCondition]:
        return list(self._by_id)

    def by_attribute(self) -> dict[str, list[tuple[int, SimpleCondition]]]:
        """Hash-table view keyed by attribute name (what the preFilter uses).

        The live table, extended by :meth:`register`: callers must not
        mutate it.
        """
        return self._by_attribute


@dataclass(frozen=True)
class ComputedCondition:
    """Comparison of an arithmetic combination of root attributes to a constant.

    This is what a LET-defined variable compiles to, e.g.
    ``$duration := $c1.responseTimestamp - $c1.callTimestamp`` used in
    ``$duration > 10`` becomes
    ``ComputedCondition(((1, "responseTimestamp"), (-1, "callTimestamp")), ">", 10)``.
    A missing or non-numeric attribute makes the condition false.
    """

    terms: tuple[tuple[int, str], ...]  # (sign, attribute-name or numeric literal)
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise ValueError(
                f"unsupported operator {self.op!r}; expected one of {OPERATORS}"
            )
        # Compile once: literal terms fold into a constant base, the target
        # constant is parsed, and the comparison function is dispatched.
        base = 0.0
        attr_terms: list[tuple[int, str]] = []
        for sign, term in self.terms:
            literal = as_number(term)
            if literal is not None:
                base += sign * literal
            else:
                attr_terms.append((sign, term))
        object.__setattr__(self, "sum_key", (base, tuple(attr_terms)))  # equal keys, equal sums
        object.__setattr__(self, "target", float(self.value))
        object.__setattr__(self, "compare", COMPARATORS[self.op])

    def total(self, attributes: dict[str, str]) -> float | None:
        """The sum over ``attributes``; None when a term is missing or non-numeric."""
        total, attr_terms = self.sum_key
        try:
            for sign, term in attr_terms:
                total += sign * float(attributes[term])
        except (KeyError, TypeError, ValueError):
            return None
        return total

    def evaluate(self, attributes: dict[str, str]) -> bool:
        total = self.total(attributes)
        return total is not None and self.compare(total, self.target)

    def __str__(self) -> str:
        parts = []
        for sign, term in self.terms:
            prefix = "-" if sign < 0 else ("+" if parts else "")
            parts.append(f"{prefix}{term}")
        return f"{''.join(parts)} {self.op} {self.value}"


@dataclass
class FilterSubscription:
    """One subscription ``Qi = (simple conditions) AND (complex queries)``.

    ``complex_queries`` is a conjunction of tree-pattern queries (usually a
    single XPath); a subscription with no complex query is *simple*.
    ``computed`` holds LET-derived arithmetic conditions, also evaluated on
    the root attributes only.
    """

    sub_id: str
    simple: list[SimpleCondition] = field(default_factory=list)
    complex_queries: list[XPath] = field(default_factory=list)
    computed: list[ComputedCondition] = field(default_factory=list)

    @property
    def is_simple(self) -> bool:
        return not self.complex_queries

    @property
    def is_complex(self) -> bool:
        return bool(self.complex_queries)

    def condition_ids(self, registry: ConditionRegistry) -> list[int]:
        """Register this subscription's simple conditions; return ordered ids."""
        return sorted({registry.register(condition) for condition in self.simple})

    def condition_mask(self, registry: ConditionRegistry) -> int:
        """Bitmask with bit ``i`` set for each registered simple-condition id ``i``."""
        mask = 0
        for condition_id in self.condition_ids(registry):
            mask |= 1 << condition_id
        return mask

    def matches_extensionally(self, item) -> bool:
        """Reference semantics: evaluate everything directly (used by tests/naive)."""
        return all(condition.evaluate(item.attrib) for condition in (*self.simple, *self.computed)) and all(
            query.matches(item) for query in self.complex_queries
        )

