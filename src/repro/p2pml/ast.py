"""Abstract syntax tree of P2PML subscriptions."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.template import parse_value_ref
from repro.xmlmodel.tree import Element


@dataclass
class Operand:
    """One side of a WHERE condition or a LET arithmetic term.

    ``kind`` is one of ``"attribute"`` ($var.attr), ``"path"`` ($var/xpath),
    ``"variable"`` (a bare $var -- a LET variable or a stream variable),
    ``"literal"`` (string) or ``"number"``.
    """

    kind: str
    var: str | None = None
    detail: str | None = None
    value: str | None = None

    @classmethod
    def parse(cls, text: "str | int | float | Operand") -> "Operand":
        """Build an operand from its P2PML surface syntax.

        ``$var.attr`` is an attribute reference, ``$var/xpath`` a path,
        ``$var`` a bare variable (split as RETURN holes are, by
        :func:`~repro.algebra.template.parse_value_ref`); numbers (or
        numeric strings) are number literals and anything else --
        optionally double-quoted -- a string literal.  The programmatic
        :class:`~repro.p2pml.builder.SubscriptionBuilder` uses this so
        fluent conditions read like the textual language.
        """
        if isinstance(text, Operand):
            return text
        if isinstance(text, (int, float)):
            return cls("number", value=repr(text))
        text = text.strip()
        if text.startswith("$"):
            ref = parse_value_ref(text)
            if ref.kind == "self":
                return cls("variable", var=ref.var)
            return cls(ref.kind, var=ref.var, detail=ref.detail)
        if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
            return cls("literal", value=text[1:-1])
        try:
            float(text)
        except ValueError:
            return cls("literal", value=text)
        return cls("number", value=text)

    @property
    def is_reference(self) -> bool:
        return self.kind in ("attribute", "path", "variable")

    def __str__(self) -> str:
        if self.kind == "attribute":
            return f"${self.var}.{self.detail}"
        if self.kind == "path":
            return f"${self.var}/{self.detail}"
        if self.kind == "variable":
            return f"${self.var}"
        if self.kind == "number":
            return str(self.value)
        return repr(self.value)


@dataclass
class Condition:
    """A WHERE conjunct: ``left op right`` or an existence test on ``left``."""

    left: Operand
    op: str | None = None
    right: Operand | None = None

    def variables(self) -> set[str]:
        names = set()
        for operand in (self.left, self.right):
            if operand is not None and operand.is_reference and operand.var:
                names.add(operand.var)
        return names

    def __str__(self) -> str:
        if self.op is None:
            return str(self.left)
        return f"{self.left} {self.op} {self.right}"


@dataclass
class LetDefinition:
    """``let $name := term1 +/- term2 ...`` -- a signed sum of operands."""

    name: str
    terms: list[tuple[int, Operand]] = field(default_factory=list)

    def variables(self) -> set[str]:
        return {
            operand.var
            for _, operand in self.terms
            if operand.is_reference and operand.var
        }


@dataclass
class AlerterSource:
    """``alerterName(<p>peer</p> ... )`` or ``alerterName($membershipVar)``."""

    function: str
    peer_args: list[Element] = field(default_factory=list)
    stream_var: str | None = None

    @property
    def peers(self) -> list[str]:
        """Monitored peers named by ``<p>...</p>`` arguments."""
        peers = []
        for arg in self.peer_args:
            for node in arg.iter("p"):
                if node.text:
                    peers.append(node.text.strip())
        return peers


@dataclass
class NestedSource:
    """A nested subscription used as a stream source."""

    subscription: "SubscriptionAST"


@dataclass
class ForBinding:
    """``$var in <source>``."""

    var: str
    source: AlerterSource | NestedSource


@dataclass
class ByClause:
    """How the user is notified: channel, e-mail, file, RSS or web page."""

    mode: str  # "channel" | "email" | "file" | "rss" | "webpage"
    target: str
    publish: bool = True
    subscriber: tuple[str, str, str] | None = None  # (peer, node, channel)


@dataclass
class SubscriptionAST:
    """A full P2PML subscription."""

    bindings: list[ForBinding]
    lets: list[LetDefinition] = field(default_factory=list)
    conditions: list[Condition] = field(default_factory=list)
    template: Element | None = None
    return_var: str | None = None
    distinct: bool = False
    by: ByClause | None = None

    def variables(self) -> list[str]:
        return [binding.var for binding in self.bindings]
