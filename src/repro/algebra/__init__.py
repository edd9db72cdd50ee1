"""The ActiveXML stream algebra and its operators (Section 3).

* :mod:`repro.algebra.expr` / :mod:`repro.algebra.rewrite` -- the symbolic
  algebra (eval / send / receive service expressions) and the rewriting rules
  used to turn a centralised plan into per-peer concurrent actions.
* :mod:`repro.algebra.template` -- variable bindings, value references
  (``$c1.caller``, ``$c2/path``) and the RETURN-clause templates.
* :mod:`repro.algebra.operators` -- the runtime stream processors: Union
  (∪), Join (⋈), Duplicate-removal and Group; Filter (σ) and Restructure (Π)
  run as fused stages of :mod:`repro.compile`.
* :mod:`repro.algebra.plan` -- the operator DAG (monitoring plan) that the
  Subscription Manager optimises, distributes and deploys.
"""

from repro.algebra.template import (
    Binding,
    RestructureTemplate,
    ValueRef,
    get_binding,
    is_tuple_item,
    make_tuple_item,
)
from repro.algebra.operators import (
    DuplicateRemovalOperator,
    GroupOperator,
    JoinOperator,
    Operator,
    UnionOperator,
)
from repro.algebra.plan import PlanNode, plan_signature
from repro.algebra.expr import (
    Doc,
    Eval,
    Expr,
    Label,
    Receive,
    Send,
    Service,
    Var,
)
from repro.algebra.rewrite import (
    PeerAction,
    push_selections_down,
    rewrite_external_invocation,
    rewrite_local_invocation,
)

__all__ = [
    "Binding",
    "RestructureTemplate",
    "ValueRef",
    "get_binding",
    "is_tuple_item",
    "make_tuple_item",
    "DuplicateRemovalOperator",
    "GroupOperator",
    "JoinOperator",
    "Operator",
    "UnionOperator",
    "PlanNode",
    "plan_signature",
    "Doc",
    "Eval",
    "Expr",
    "Label",
    "Receive",
    "Send",
    "Service",
    "Var",
    "PeerAction",
    "push_selections_down",
    "rewrite_external_invocation",
    "rewrite_local_invocation",
]
