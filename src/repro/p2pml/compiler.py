"""Compilation of P2PML subscriptions into algebraic monitoring plans.

The compiler produces the *canonical* plan of Section 3.3: per-variable
filters sit directly above each variable's source (an alerter, a union of
alerters, or a nested sub-plan), joins combine the variables on their
cross-variable equality conditions, then Duplicate-removal, Restructure and
finally the publisher.  Operator placement is left to the placement phase
(everything except the alerters is ``@any``), and further algebraic
optimisation (selection push-down through unions) is performed by the
Subscription Manager's optimiser.
"""

from __future__ import annotations

from repro.algebra.plan import (
    ALERTER,
    DISTINCT,
    FILTER,
    JOIN,
    PUBLISH,
    RESTRUCTURE,
    UNION,
    PlanNode,
)
from repro.algebra.template import RestructureTemplate, ValueRef
from repro.filtering.conditions import (
    ComputedCondition,
    FilterSubscription,
    SimpleCondition,
)
from repro.p2pml.ast import (
    AlerterSource,
    Condition,
    NestedSource,
    Operand,
    SubscriptionAST,
)
from repro.p2pml.errors import P2PMLCompileError
from repro.p2pml.parser import parse_subscription
from repro.xmlmodel.tree import Element
from repro.xmlmodel.xpath import XPath, XPathError

_MIRROR = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def compile_text(text: str, _ignored: object = None) -> PlanNode:
    """Parse and compile a subscription given as P2PML text.

    The second argument is ignored: no plan records who deploys it.  It stays
    only because ``perf/tests/test_oracle.py`` still passes a sub-id.
    """
    return compile_subscription(parse_subscription(text))


def compile_subscription(ast: SubscriptionAST) -> PlanNode:
    """Compile a parsed subscription into a monitoring plan."""
    return _Compiler(ast).compile()


class PlanTemplate:
    """What all subscriptions to one P2PML text share.

    ``plan`` is the optimised plan of the text, memos filled, and ``key`` its
    reuse cache key.  No node names a subscription: a stream is identified by
    what it computes (Section 5), and what a deployment owns -- stream ids,
    ledger keys, its valve -- lives on its subscription record.

    ``recipes`` maps a subscribing peer to the deployment recipe each
    ``reuse=False`` subscription from there stamps, whatever peers it must
    avoid; ``None`` when placement reads the load (a JOIN or a UNION), so
    each places its own.
    """

    __slots__ = ("plan", "push_selections", "key", "recipes")

    def __init__(self, plan: PlanNode, push_selections: bool, key: tuple[str, str], fixed_placement: bool) -> None:
        self.plan, self.push_selections, self.key = plan, push_selections, key
        self.recipes: dict[str, object] | None = {} if fixed_placement else None

    def instantiate(self) -> PlanNode:
        """A copy of ``plan``; no ``params`` dict or ``children`` list is shared."""
        return self.plan.copy()


class _ConditionBuckets:
    """Per-variable filter conditions plus the cross-variable join predicates."""

    def __init__(self, variables: list[str]) -> None:
        self.simple: dict[str, list[SimpleCondition]] = {var: [] for var in variables}
        self.complex: dict[str, list[XPath]] = {var: [] for var in variables}
        self.computed: dict[str, list[ComputedCondition]] = {var: [] for var in variables}
        self.joins: list[tuple[str, ValueRef, str, ValueRef]] = []

    def has_filter(self, var: str) -> bool:
        return bool(self.simple[var] or self.complex[var] or self.computed[var])


class _Compiler:
    def __init__(self, ast: SubscriptionAST) -> None:
        self.ast = ast
        self.stream_vars = ast.variables()
        self.lets = {definition.name: definition for definition in ast.lets}
        # membership variables are consumed by dynamic alerters (inCOM($j));
        # they drive the monitored-peer set and do not appear in the output
        self.consumed_vars = {
            binding.source.stream_var
            for binding in ast.bindings
            if isinstance(binding.source, AlerterSource) and binding.source.stream_var
        }
        self.output_vars = [var for var in self.stream_vars if var not in self.consumed_vars]

    # -- entry point --------------------------------------------------------------

    def compile(self) -> PlanNode:
        if not self.ast.bindings:
            raise P2PMLCompileError("a subscription needs at least one FOR binding")
        if len(set(self.stream_vars)) != len(self.stream_vars):
            raise P2PMLCompileError("duplicate variable names in the FOR clause")

        buckets = self._classify_conditions()
        per_var_plans: dict[str, PlanNode] = {}
        for binding in self.ast.bindings:
            per_var_plans[binding.var] = self._variable_plan(
                binding.var, binding.source, buckets, per_var_plans
            )
        plan = self._join_variables(per_var_plans, buckets)
        if self.ast.distinct:
            plan = PlanNode(DISTINCT, {"criterion": "structural"}, [plan])
        plan = self._restructure(plan)
        return self._publish(plan)

    # -- sources --------------------------------------------------------------------

    def _variable_plan(
        self,
        var: str,
        source,
        buckets: _ConditionBuckets,
        earlier_plans: dict[str, PlanNode],
    ) -> PlanNode:
        if isinstance(source, NestedSource):
            inner = compile_subscription(source.subscription)
            # a nested subscription used as a source contributes its plan
            # without a publisher on top
            if inner.kind == PUBLISH:
                inner = inner.children[0]
            base = inner
        elif isinstance(source, AlerterSource):
            base = self._alerter_plan(var, source, earlier_plans)
        else:  # pragma: no cover - parser only produces the two kinds above
            raise P2PMLCompileError(f"unsupported source for ${var}")
        if buckets.has_filter(var):
            subscription = FilterSubscription(
                var,
                simple=buckets.simple[var],
                complex_queries=buckets.complex[var],
                computed=buckets.computed[var],
            )
            return PlanNode(FILTER, {"subscription": subscription, "var": var}, [base])
        return base

    def _alerter_plan(
        self, var: str, source: AlerterSource, earlier_plans: dict[str, PlanNode]
    ) -> PlanNode:
        if source.stream_var is not None:
            if source.stream_var not in self.stream_vars:
                raise P2PMLCompileError(
                    f"alerter {source.function!r} refers to unknown variable "
                    f"${source.stream_var}"
                )
            # The membership stream's own plan (e.g. areRegistered over the DHT)
            # becomes the child of the dynamic alerter, so that deployment can
            # wire alerters up and down as peers join and leave.
            membership_plan = earlier_plans.get(source.stream_var)
            if membership_plan is None:
                raise P2PMLCompileError(
                    f"the membership variable ${source.stream_var} must be bound "
                    f"before it is used by {source.function!r}"
                )
            return PlanNode(
                ALERTER,
                {
                    "alerter": source.function,
                    "peer": None,
                    "var": var,
                    "membership_var": source.stream_var,
                },
                [membership_plan],
            )
        peers = source.peers
        if not peers:
            raise P2PMLCompileError(
                f"alerter {source.function!r} for ${var} names no monitored peer"
            )
        nodes = [
            PlanNode(
                ALERTER,
                {"alerter": source.function, "peer": peer, "var": var},
                placement=peer if peer != "local" else None,
            )
            for peer in peers
        ]
        if len(nodes) == 1:
            return nodes[0]
        return PlanNode(UNION, {"var": var}, nodes)

    # -- condition classification ------------------------------------------------------

    def _classify_conditions(self) -> _ConditionBuckets:
        buckets = _ConditionBuckets(self.stream_vars)
        for condition in self.ast.conditions:
            self._classify_condition(condition, buckets)
        return buckets

    def _classify_condition(self, condition: Condition, buckets: _ConditionBuckets) -> None:
        variables = self._stream_variables_of(condition)
        if len(variables) == 0:
            raise P2PMLCompileError(
                f"condition {condition} does not refer to any stream variable"
            )
        if len(variables) == 1:
            self._add_local_condition(next(iter(variables)), condition, buckets)
            return
        if len(variables) == 2:
            self._add_join_condition(condition, buckets)
            return
        raise P2PMLCompileError(
            f"condition {condition} refers to more than two stream variables"
        )

    def _stream_variables_of(self, condition: Condition) -> set[str]:
        names: set[str] = set()
        for operand in (condition.left, condition.right):
            if operand is None or not operand.is_reference:
                continue
            names |= self._stream_variables_of_operand(operand)
        return names

    def _stream_variables_of_operand(self, operand: Operand) -> set[str]:
        assert operand.var is not None
        if operand.var in self.stream_vars:
            return {operand.var}
        if operand.var in self.lets:
            definition = self.lets[operand.var]
            names: set[str] = set()
            for _, term in definition.terms:
                if term.is_reference:
                    names |= self._stream_variables_of_operand(term)
            return names
        raise P2PMLCompileError(f"unknown variable ${operand.var}")

    def _add_local_condition(
        self, var: str, condition: Condition, buckets: _ConditionBuckets
    ) -> None:
        left, op, right = condition.left, condition.op, condition.right
        # normalise: the variable reference on the left
        if op is not None and right is not None and right.is_reference and not left.is_reference:
            left, right = right, left
            op = _MIRROR[op]

        if op is None:
            # existence test: a path that must match the item
            if left.kind != "path":
                raise P2PMLCompileError(
                    f"existence condition {condition} must be a path expression"
                )
            buckets.complex[var].append(self._path_query(left))
            return

        assert right is not None
        if left.kind == "attribute" and not right.is_reference:
            buckets.simple[var].append(SimpleCondition(left.detail or "", op, right.value or ""))
            return
        if left.kind == "variable" and left.var in self.lets:
            buckets.computed[var].append(self._computed_condition(left.var, op, right))
            return
        if left.kind == "path" and not right.is_reference:
            if op != "=":
                raise P2PMLCompileError(
                    f"only equality is supported on path conditions, got {condition}"
                )
            buckets.complex[var].append(self._path_query(left, equals=right.value))
            return
        if left.kind == "attribute" and right.kind == "attribute" and left.var == right.var:
            # same-variable attribute comparison: a computed condition a - b op 0
            buckets.computed[var].append(
                ComputedCondition(
                    ((1, left.detail or ""), (-1, right.detail or "")), op, 0.0
                )
            )
            return
        raise P2PMLCompileError(f"unsupported condition {condition}")

    def _computed_condition(self, let_name: str, op: str, right: Operand) -> ComputedCondition:
        if right.is_reference:
            raise P2PMLCompileError(
                f"the right-hand side of a condition on ${let_name} must be a constant"
            )
        try:
            value = float(right.value or "")
        except ValueError as exc:
            raise P2PMLCompileError(
                f"condition on ${let_name} compares to a non-numeric constant {right.value!r}"
            ) from exc
        definition = self.lets[let_name]
        terms: list[tuple[int, str]] = []
        for sign, term in definition.terms:
            if term.kind == "attribute":
                terms.append((sign, term.detail or ""))
            elif term.kind == "number":
                terms.append((sign, term.value or "0"))
            else:
                raise P2PMLCompileError(
                    f"LET ${let_name} may only combine root attributes and numbers"
                )
        return ComputedCondition(tuple(terms), op, value)

    def _path_query(self, operand: Operand, equals: str | None = None) -> XPath:
        expression = f"${operand.var}/{operand.detail}"
        if equals is not None:
            expression = f"{expression}[text() = '{equals}']"
        try:
            return XPath.compile(expression)
        except XPathError as exc:
            raise P2PMLCompileError(f"invalid path condition {expression!r}: {exc}") from exc

    def _add_join_condition(self, condition: Condition, buckets: _ConditionBuckets) -> None:
        if condition.op != "=":
            raise P2PMLCompileError(
                f"cross-variable conditions must be equalities, got {condition}"
            )
        assert condition.right is not None
        left_ref = self._value_ref(condition.left)
        right_ref = self._value_ref(condition.right)
        buckets.joins.append((condition.left.var or "", left_ref, condition.right.var or "", right_ref))

    def _value_ref(self, operand: Operand) -> ValueRef:
        if operand.kind == "attribute":
            return ValueRef.attribute(operand.var or "", operand.detail or "")
        if operand.kind == "path":
            return ValueRef.path(operand.var or "", operand.detail or "")
        if operand.kind == "variable":
            if operand.var in self.lets:
                raise P2PMLCompileError(
                    f"LET variable ${operand.var} cannot be used in a join predicate"
                )
            return ValueRef.whole(operand.var or "")
        return ValueRef.literal(operand.value or "")

    # -- joins ----------------------------------------------------------------------------

    def _join_variables(
        self, per_var_plans: dict[str, PlanNode], buckets: _ConditionBuckets
    ) -> PlanNode:
        # membership variables (feeding dynamic alerters) do not join the output
        output_vars = self.output_vars
        if not output_vars:
            raise P2PMLCompileError("every variable is consumed as a membership stream")

        plan = per_var_plans[output_vars[0]]
        joined = {output_vars[0]}
        remaining = output_vars[1:]
        while remaining:
            progressed = False
            for var in list(remaining):
                predicate = self._join_predicate(joined, var, buckets)
                if not predicate:
                    continue
                plan = PlanNode(
                    JOIN,
                    {
                        "left_var": next(iter(joined)) if len(joined) == 1 else "+".join(sorted(joined)),
                        "right_var": var,
                        "predicate": predicate,
                    },
                    [plan, per_var_plans[var]],
                )
                joined.add(var)
                remaining.remove(var)
                progressed = True
            if not progressed:
                raise P2PMLCompileError(
                    "no join condition connects variables "
                    f"{sorted(joined)} with {sorted(remaining)}; cross products are not supported"
                )
        return plan

    def _join_predicate(
        self, joined: set[str], var: str, buckets: _ConditionBuckets
    ) -> list[tuple[ValueRef, ValueRef]]:
        predicate = []
        for left_var, left_ref, right_var, right_ref in buckets.joins:
            if left_var in joined and right_var == var:
                predicate.append((left_ref, right_ref))
            elif right_var in joined and left_var == var:
                predicate.append((right_ref, left_ref))
        return predicate

    # -- output -------------------------------------------------------------------------------

    def _restructure(self, plan: PlanNode) -> PlanNode:
        template_root = self.ast.template
        if template_root is None:
            if self.ast.return_var is None:
                raise P2PMLCompileError("the RETURN clause is missing")
            if len(self.output_vars) == 1:
                return plan  # identity projection over the single variable
            template_root = Element("result", text=f"{{${self.ast.return_var}}}")
        template = RestructureTemplate(template_root)
        unknown = template.variables() - set(self.stream_vars) - set(self.lets)
        if unknown:
            raise P2PMLCompileError(f"the RETURN template refers to unknown variables: {sorted(unknown)}")
        default_var = self.output_vars[0] if len(self.output_vars) == 1 else None
        return PlanNode(RESTRUCTURE, {"template": template, "var": default_var}, [plan])

    def _publish(self, plan: PlanNode) -> PlanNode:
        by = self.ast.by
        if by is None or by.mode == "local":
            # the subscription's own valve reads a local publish: it has no target
            return PlanNode(PUBLISH, {"mode": "local"}, [plan])
        params = {"mode": by.mode, "target": by.target, "publish": by.publish}
        if by.subscriber is not None:
            params["subscriber"] = by.subscriber
        return PlanNode(PUBLISH, params, [plan])
