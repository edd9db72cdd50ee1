"""The symbolic ActiveXML algebra of Section 3.2-3.3.

Algebraic expressions model distributed evaluation: documents ``d@p``,
services ``s@p(e1, ..., ek)`` (with generic placement ``@any``), labelled
trees ``l<e1, ..., ek>``, and the special services ``eval``, ``send`` and
``receive``.  :mod:`repro.algebra.rewrite` implements the rewriting rules
that turn ``eval`` of a remote service into concurrent per-peer actions.

The notation produced by ``str()`` mirrors the paper: an executing service
is prefixed with ``°`` and a finished one with ``•``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

#: Placement wildcard used before the placement phase assigns concrete peers.
ANY = "any"

IDLE = "idle"
EXECUTING = "executing"
FINISHED = "finished"

_STATE_MARK = {IDLE: "", EXECUTING: "°", FINISHED: "•"}


class Expr:
    """Base class for algebraic expressions."""

    def children(self) -> list["Expr"]:
        return []

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass
class Var(Expr):
    """A data variable ($x) or node variable (#x@p)."""

    name: str
    peer: str | None = None
    is_node: bool = False

    def __str__(self) -> str:
        prefix = "#" if self.is_node else "$"
        suffix = f"@{self.peer}" if self.peer else ""
        return f"{prefix}{self.name}{suffix}"


@dataclass
class Doc(Expr):
    """A document d@p."""

    name: str
    peer: str = ANY

    def __str__(self) -> str:
        return f"{self.name}@{self.peer}"


@dataclass
class Label(Expr):
    """A labelled tree l<e1, ..., ek>."""

    label: str
    args: list[Expr] = field(default_factory=list)

    def children(self) -> list[Expr]:
        return list(self.args)

    def __str__(self) -> str:
        inner = ", ".join(str(arg) for arg in self.args)
        return f"{self.label}<{inner}>"


@dataclass
class Service(Expr):
    """A service call s@p(e1, ..., ek); ``peer`` may be the generic ``any``."""

    name: str
    peer: str = ANY
    args: list[Expr] = field(default_factory=list)
    state: str = IDLE

    def children(self) -> list[Expr]:
        return list(self.args)

    @property
    def is_generic(self) -> bool:
        return self.peer == ANY

    def executing(self) -> "Service":
        return Service(self.name, self.peer, list(self.args), EXECUTING)

    def at(self, peer: str) -> "Service":
        """Concretise a generic service on a given peer."""
        return Service(self.name, peer, list(self.args), self.state)

    def __str__(self) -> str:
        inner = ", ".join(str(arg) for arg in self.args)
        return f"{_STATE_MARK[self.state]}{self.name}@{self.peer}({inner})"


@dataclass
class Eval(Expr):
    """eval@p(e): peer p evaluates expression e."""

    peer: str
    expr: Expr

    def children(self) -> list[Expr]:
        return [self.expr]

    def __str__(self) -> str:
        return f"eval@{self.peer}({self.expr})"


@dataclass
class Send(Expr):
    """send@p(#x@p', e): peer p sends the result of e to node #x at p'."""

    peer: str
    target: Var
    expr: Expr
    state: str = IDLE

    def children(self) -> list[Expr]:
        return [self.expr]

    def __str__(self) -> str:
        return f"{_STATE_MARK[self.state]}send@{self.peer}({self.target}, {self.expr})"


@dataclass
class Receive(Expr):
    """receive@p(): placeholder that accepts data sent by another peer."""

    peer: str
    state: str = EXECUTING

    def __str__(self) -> str:
        return f"{_STATE_MARK[self.state]}receive@{self.peer}()"


def generic_services(expr: Expr) -> list[Service]:
    """All services in ``expr`` still placed at the generic ``@any``."""
    return [node for node in expr.walk() if isinstance(node, Service) and node.is_generic]


def intern_signature(text: str) -> str:
    """Intern a textual signature so equal signatures share one object.

    Signature strings are used as dictionary keys throughout the reuse index
    and the plan compiler's materialized-expression table; interning them makes
    those lookups pointer-comparison fast on the hit path.
    """
    return sys.intern(text)
