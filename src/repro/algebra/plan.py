"""Monitoring plans: the operator DAG produced by compiling a subscription.

A plan is a tree of :class:`PlanNode` objects.  Leaves are alerters (stream
sources) or references to existing streams (after reuse); inner nodes are
stream processors; the root is normally a publisher.  Each node carries a
``placement`` -- the peer that will run it -- which is ``None`` (the paper's
``@any``) until the placement phase assigns a concrete peer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.xmlmodel.serialize import to_xml

# Node kinds
ALERTER = "alerter"
EXISTING = "existing"  # reuse of an already published stream
FILTER = "filter"
UNION = "union"
JOIN = "join"
RESTRUCTURE = "restructure"
DISTINCT = "distinct"
GROUP = "group"
PUBLISH = "publish"

KINDS = (ALERTER, EXISTING, FILTER, UNION, JOIN, RESTRUCTURE, DISTINCT, GROUP, PUBLISH)


@dataclass(slots=True)
class PlanNode:
    """One operator of a monitoring plan.

    Nodes are slotted: reuse probing touches every node of every submitted
    plan, so the per-node footprint and attribute-lookup cost matter.
    ``params`` is treated as immutable after construction (rewrites build new
    nodes or swap whole ``children`` lists instead), which is what makes the
    cached signature detail and operator spec below safe.
    """

    kind: str
    params: dict = field(default_factory=dict)
    children: list["PlanNode"] = field(default_factory=list)
    placement: str | None = None
    #: cached :func:`signature_detail` / operator-spec fingerprint; carried by
    #: :meth:`copy` (same params => same detail), never compared or shown
    _detail: str | None = field(default=None, repr=False, compare=False)
    _spec: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown plan node kind {self.kind!r}")

    # -- navigation ----------------------------------------------------------

    def iter_nodes(self) -> Iterator["PlanNode"]:
        """Depth-first, post-order iteration (children before parents)."""
        for child in self.children:
            yield from child.iter_nodes()
        yield self

    def leaves(self) -> list["PlanNode"]:
        return [node for node in self.iter_nodes() if not node.children]

    def count(self, kind: str | None = None) -> int:
        return sum(1 for node in self.iter_nodes() if kind is None or node.kind == kind)

    def find_all(self, kind: str) -> list["PlanNode"]:
        return [node for node in self.iter_nodes() if node.kind == kind]

    # -- copying ----------------------------------------------------------------

    def copy(self) -> "PlanNode":
        # ``_detail``/``_spec`` are pure functions of ``params`` and so stay
        # valid across the copy
        return PlanNode(
            self.kind,
            dict(self.params),
            [child.copy() for child in self.children],
            self.placement,
            self._detail,
            self._spec,
        )

    # -- placement ----------------------------------------------------------------

    @property
    def is_placed(self) -> bool:
        return self.placement is not None

    def unplaced_nodes(self) -> list["PlanNode"]:
        return [node for node in self.iter_nodes() if not node.is_placed]

    # -- display --------------------------------------------------------------------

    def describe(self, indent: int = 0) -> str:
        """Readable multi-line description, e.g. for logging and examples."""
        pad = "  " * indent
        where = f"@{self.placement}" if self.placement else "@any"
        details = self._param_summary()
        lines = [f"{pad}{self.kind}{where}{details}"]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _param_summary(self) -> str:
        interesting = {}
        for key in ("alerter", "peer", "var", "channel", "mode", "left_var", "right_var"):
            if key in self.params:
                interesting[key] = self.params[key]
        if "subscription" in self.params:
            subscription = self.params["subscription"]
            interesting["conditions"] = len(subscription.simple) + len(
                subscription.complex_queries
            )
        if not interesting:
            return ""
        inner = ", ".join(f"{key}={value}" for key, value in interesting.items())
        return f"({inner})"

    def __repr__(self) -> str:
        return f"PlanNode({self.kind!r}, placement={self.placement!r}, children={len(self.children)})"


def plan_signature(node: PlanNode) -> str:
    """Canonical signature of a (sub)plan, used for reuse and equivalence checks.

    Two sub-plans with equal signatures compute the same stream (same operator,
    same parameters, same operand signatures).  Signatures are built over the
    *original* source streams, never replicas, matching Section 5.
    """
    children = ",".join(plan_signature(child) for child in node.children)
    return f"{node.kind}[{signature_detail(node)}]({children})"


def signature_detail(node: PlanNode) -> str:
    """The node's own parameter fingerprint, memoised per node.

    Safe because ``params`` never mutates after construction; the cache is
    what keeps :func:`plan_signature` and the Stream Definition Database's
    ``operator_spec`` cheap when the reuse pass probes every node of every
    incoming subscription.
    """
    detail = node._detail
    if detail is None:
        detail = _signature_detail(node)
        node._detail = detail
    return detail


def _signature_detail(node: PlanNode) -> str:
    params = node.params
    if node.kind == ALERTER:
        return f"{params.get('alerter', '?')}@{params.get('peer', '?')}"
    if node.kind == EXISTING:
        return f"{params.get('stream_id', '?')}@{params.get('peer', '?')}"
    if node.kind == FILTER:
        subscription = params.get("subscription")
        if subscription is None:
            return ""
        simple = ";".join(sorted(str(condition) for condition in subscription.simple))
        complex_parts = ";".join(
            sorted(query.expression for query in subscription.complex_queries)
        )
        # computed (LET-derived) conditions select items too: leaving them out
        # would let reuse conflate filters that differ only in, say, a
        # threshold, silently serving one subscription the other's stream
        computed = ";".join(sorted(str(condition) for condition in subscription.computed))
        return f"{simple}|{complex_parts}|{computed}"
    if node.kind == JOIN:
        predicate = params.get("predicate", [])
        pairs = ";".join(sorted(f"{left}={right}" for left, right in predicate))
        # the history window bounds which pairs can meet: joins differing
        # only in it compute different streams and must not be conflated
        return f"{pairs}|w={params.get('window')}"
    if node.kind == RESTRUCTURE:
        template = params.get("template")
        if template is None:
            return ""
        # fingerprint the whole skeleton (holes included): templates sharing
        # a root tag but emitting different trees are different restructures
        serialized = to_xml(template.skeleton)
        return hashlib.sha1(serialized.encode("utf-8")).hexdigest()[:12]
    if node.kind == DISTINCT:
        return str(params.get("criterion", "structural"))
    if node.kind == GROUP:
        return f"{params.get('key', '')}|e={params.get('every')}"
    if node.kind == PUBLISH:
        mode = params.get("mode", "channel")
        if mode == "local":
            # a local publish has no target: its subscription's valve reads it
            return "local"
        return f"{mode}:{params.get('target', '')}"
    return ""
