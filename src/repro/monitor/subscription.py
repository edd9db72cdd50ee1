"""Subscriptions and the per-peer Subscription Database.

"A peer keeps the information about all subscriptions under his
responsibility in a database named Subscription Database." (Section 3.1)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.algebra.plan import PlanNode
from repro.p2pml.compiler import PlanTemplate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.deployment import DeployedTask

#: Lifecycle states of a subscription.
PENDING = "pending"
DEPLOYED = "deployed"
PAUSED = "paused"
RECOVERING = "recovering"
CANCELLED = "cancelled"

#: Legal status transitions driven by the lifecycle verbs.  ``RECOVERING``
#: is entered when a peer the subscription spans fails; the recovery layer
#: drives it back to ``DEPLOYED`` (or ``PAUSED``) once the plan has been
#: redeployed on surviving peers.
TRANSITIONS: dict[str, set[str]] = {
    PENDING: {DEPLOYED, CANCELLED},
    DEPLOYED: {PAUSED, RECOVERING, CANCELLED},
    PAUSED: {DEPLOYED, RECOVERING, CANCELLED},
    RECOVERING: {DEPLOYED, PAUSED, CANCELLED},
    CANCELLED: set(),
}


class SubscriptionStateError(RuntimeError):
    """Raised on an illegal lifecycle transition (e.g. resuming a cancelled task)."""


@dataclass
class Subscription:
    """One monitoring subscription managed by a peer."""

    sub_id: str
    #: what the plan was (and, after a failure, is again) instantiated from
    template: PlanTemplate
    plan: PlanNode | None = None
    status: str = PENDING
    manager_peer: str | None = None
    task: "DeployedTask | None" = None
    notes: dict[str, object] = field(default_factory=dict)


class SubscriptionDatabase:
    """All subscriptions a Subscription Manager is responsible for."""

    def __init__(self) -> None:
        self._subscriptions: dict[str, Subscription] = {}
        self._counter = 0

    def new_id(self, prefix: str = "sub") -> str:
        self._counter += 1
        return f"{prefix}-{self._counter}"

    def add(self, subscription: Subscription) -> None:
        if subscription.sub_id in self._subscriptions:
            raise ValueError(f"subscription {subscription.sub_id!r} already registered")
        self._subscriptions[subscription.sub_id] = subscription

    def get(self, sub_id: str) -> Subscription:
        return self._subscriptions[sub_id]

    def remove(self, sub_id: str) -> bool:
        """Drop a record entirely (failed deployments); False when unknown."""
        return self._subscriptions.pop(sub_id, None) is not None

    def __contains__(self, sub_id: str) -> bool:
        return sub_id in self._subscriptions

    def __len__(self) -> int:
        return len(self._subscriptions)

    @property
    def subscription_ids(self) -> list[str]:
        return sorted(self._subscriptions)

    def with_status(self, status: str) -> list[Subscription]:
        return [sub for sub in self._subscriptions.values() if sub.status == status]

    def mark(self, sub_id: str, status: str) -> None:
        """Drive a status transition, validating it against :data:`TRANSITIONS`."""
        record = self._subscriptions[sub_id]
        if status == record.status:
            return
        if status not in TRANSITIONS.get(record.status, set()):
            raise SubscriptionStateError(
                f"subscription {sub_id!r} cannot go from {record.status!r} to {status!r}"
            )
        record.status = status
