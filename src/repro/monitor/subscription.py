"""Subscriptions and the per-peer Subscription Database.

"A peer keeps the information about all subscriptions under his
responsibility in a database named Subscription Database." (Section 3.1)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.algebra.plan import PlanNode
from repro.monitor.lifecycle import DeliveryValve, ResultBuffer
from repro.p2pml.compiler import PlanTemplate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.deployment import DeployedTask
    from repro.publishers import Publisher, PublisherContext

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
    """One monitoring subscription managed by a peer.

    The record owns the subscription's delivery end -- the valve, the
    opt-in result buffer and the BY-clause publisher -- from submit to
    cancel.  A deployment only connects its root stream to the valve, so a
    recovery redeployment re-points the valve and the audience stays put.
    """

    sub_id: str
    #: what the plan was (and, after a failure, is again) instantiated from;
    #: ``None`` for a plan built by hand, which recovery cannot rebuild
    template: PlanTemplate | None = None
    plan: PlanNode | None = None
    status: str = PENDING
    manager_peer: str | None = None
    task: "DeployedTask | None" = None
    #: the epoch of the latest deployment: 0 at submit, one more per
    #: redeployment (it namespaces that deployment's stream ids)
    epoch: int = 0
    #: the opt-in bounded buffer ``handle.results()`` reads
    results: ResultBuffer | None = None
    #: the BY-clause publisher, built by the first deployment ...
    publisher: "Publisher | None" = None
    #: ... from this context: its undo actions run at cancel, and every
    #: later deployment re-advertises the publisher's stream through it
    publication: "PublisherContext | None" = None
    #: the delivery stream each deployment connects its root stream to
    valve: DeliveryValve = field(init=False)

    def __post_init__(self) -> None:
        self.valve = DeliveryValve(f"{self.sub_id}.delivery", self.manager_peer)
        if self.results is not None:
            self.valve.subscribe(self.results.push)


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

    def with_status(self, status: str) -> list[Subscription]:
        return [sub for sub in self._subscriptions.values() if sub.status == status]

    def mark(self, sub_id: str, status: str) -> None:
        """Drive a status transition, validating it against :data:`TRANSITIONS`."""
        record = self._subscriptions[sub_id]
        if status == record.status:
            return
        if status not in TRANSITIONS[record.status]:
            raise SubscriptionStateError(
                f"subscription {sub_id!r} cannot go from {record.status!r} to {status!r}"
            )
        record.status = status
