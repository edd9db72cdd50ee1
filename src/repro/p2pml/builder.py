"""Programmatic construction of P2PML subscriptions.

:class:`SubscriptionBuilder` is a fluent FOR / LET / WHERE / RETURN / BY
API compiling to the very same :class:`~repro.p2pml.ast.SubscriptionAST`
the textual parser produces, so built subscriptions flow through the same
compiler, optimiser, reuse engine and deployment -- and are recognised as
identical by the Reuse algorithm when they overlap with textual ones.

    handle = monitor.subscribe(
        SubscriptionBuilder()
        .for_var("c", "outCOM", "a.com", "b.com")
        .let("duration", "$c.responseTimestamp - $c.callTimestamp")
        .where("$duration", ">", 10)
        .where("$c.callMethod", "=", "GetTemperature")
        .returns('<incident type="slowAnswer"><client>{$c.caller}</client></incident>')
        .by_channel("alertQoS")
    )
"""

from __future__ import annotations

import re

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
from repro.p2pml.errors import P2PMLCompileError
from repro.xmlmodel.parse import parse_xml
from repro.xmlmodel.tree import Element

_TERM_SPLIT = re.compile(r"\s*([+-])\s*")


class SubscriptionBuilder:
    """Fluent builder producing a :class:`SubscriptionAST`."""

    def __init__(self) -> None:
        self._bindings: list[ForBinding] = []
        self._lets: list[LetDefinition] = []
        self._conditions: list[Condition] = []
        self._template: Element | None = None
        self._return_var: str | None = None
        self._distinct = False
        self._by: ByClause | None = None

    # -- FOR -------------------------------------------------------------------

    def for_var(
        self,
        var: str,
        function: str,
        *peers: str,
        follow: str | None = None,
    ) -> "SubscriptionBuilder":
        """Bind ``$var`` to an alerter source.

        ``peers`` name the monitored peers (``inCOM(<p>a.com</p>)``);
        ``follow="$j"`` instead makes the monitored set track a previously
        bound membership variable (``inCOM($j)``).
        """
        var = var.lstrip("$")
        if follow is not None:
            if peers:
                raise P2PMLCompileError(
                    f"alerter {function!r} for ${var} cannot both name peers "
                    "and follow a membership variable"
                )
            source = AlerterSource(function, stream_var=follow.lstrip("$"))
        else:
            if not peers:
                raise P2PMLCompileError(f"alerter {function!r} for ${var} names no monitored peer")
            source = AlerterSource(
                function, peer_args=[Element("p", text=peer) for peer in peers]
            )
        self._bindings.append(ForBinding(var, source))
        return self

    def for_nested(
        self, var: str, subscription: "SubscriptionAST | SubscriptionBuilder"
    ) -> "SubscriptionBuilder":
        """Bind ``$var`` to a nested subscription used as a stream source."""
        if isinstance(subscription, SubscriptionBuilder):
            subscription = subscription.build()
        self._bindings.append(ForBinding(var.lstrip("$"), NestedSource(subscription)))
        return self

    # -- LET -------------------------------------------------------------------

    def let(self, name: str, expression: str) -> "SubscriptionBuilder":
        """Define ``let $name := expression`` (a signed sum of operands)."""
        terms: list[tuple[int, Operand]] = []
        sign = 1
        for piece in _TERM_SPLIT.split(expression.strip()):
            if piece == "":
                continue  # empty head before a leading sign
            if piece == "+":
                continue
            if piece == "-":
                sign = -sign
                continue
            terms.append((sign, Operand.parse(piece)))
            sign = 1
        if not terms:
            raise P2PMLCompileError(f"LET ${name} has an empty expression")
        self._lets.append(LetDefinition(name.lstrip("$"), terms))
        return self

    # -- WHERE -----------------------------------------------------------------

    def where(
        self,
        left: "str | int | float | Operand",
        op: str | None = None,
        right: "str | int | float | Operand | None" = None,
    ) -> "SubscriptionBuilder":
        """Add a WHERE conjunct: ``left op right``, or an existence test on ``left``."""
        left_operand = Operand.parse(left)
        if op is None:
            self._conditions.append(Condition(left_operand))
            return self
        if right is None:
            raise P2PMLCompileError(f"condition on {left!r} has an operator but no right side")
        self._conditions.append(Condition(left_operand, op, Operand.parse(right)))
        return self

    def where_exists(self, path: str) -> "SubscriptionBuilder":
        """Require that ``$var/xpath`` matches the item (existence test)."""
        operand = Operand.parse(path)
        if operand.kind != "path":
            raise P2PMLCompileError(f"existence condition must be a path expression, got {path!r}")
        self._conditions.append(Condition(operand))
        return self

    # -- RETURN ----------------------------------------------------------------

    def returns(self, template: "Element | str") -> "SubscriptionBuilder":
        """Set the RETURN clause.

        ``template`` is either an :class:`Element` (with ``{$var}``
        placeholders in text/attributes), XML text to the same effect, or a
        bare variable reference (``"$x"``) for identity projection.
        """
        if isinstance(template, Element):
            self._template = template
            return self
        text = template.strip()
        if text.startswith("$"):
            self._return_var = text[1:]
            return self
        self._template = parse_xml(text)
        return self

    def distinct(self, enabled: bool = True) -> "SubscriptionBuilder":
        """Request duplicate removal over the result stream."""
        self._distinct = enabled
        return self

    # -- BY --------------------------------------------------------------------

    def by_channel(
        self,
        target: str,
        subscriber: "str | tuple[str, str, str] | None" = None,
        publish: bool = True,
    ) -> "SubscriptionBuilder":
        """Publish results as channel ``#target`` at the manager peer."""
        if isinstance(subscriber, str):
            subscriber = (subscriber, f"#{target}", target)
        self._by = ByClause("channel", target, publish=publish, subscriber=subscriber)
        return self

    def by(self, mode: str, target: str, **options) -> "SubscriptionBuilder":
        """Publish results in ``mode`` to ``target``, as ``by <mode> "<target>"``
        does: ``email``, ``file``, ``rss``, ``webpage`` or a mode a plug-in registered."""
        self._by = ByClause(mode, target, **options)
        return self

    # -- build -----------------------------------------------------------------

    def build(self) -> SubscriptionAST:
        """Produce the AST; validation happens at compile time, as for text."""
        if not self._bindings:
            raise P2PMLCompileError("a subscription needs at least one FOR binding")
        return SubscriptionAST(
            bindings=list(self._bindings),
            lets=list(self._lets),
            conditions=list(self._conditions),
            template=self._template,
            return_var=self._return_var,
            distinct=self._distinct,
            by=self._by,
        )
