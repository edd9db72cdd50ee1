"""Self-healing deployments: detect orphaned resources, redeploy around failures.

The paper's P2P Monitor lives in a volatile network -- "peers join, leave
and fail while subscriptions stay alive".  This module is the monitor-side
half of that story:

* when a peer fails, the :class:`RecoveryManager` walks the system's
  :class:`~repro.monitor.lifecycle.ResourceLedger` to find the *orphaned*
  resources (streams, operators and channel proxies hosted by or wired
  through the dead peer) and, following the keys that hold them, the
  subscriptions that depend on them;
* each affected subscription is marked ``RECOVERING`` and its plan is
  rebuilt and redeployed on surviving peers.  Union branches whose alerter
  source died are *pruned* (the inCOM-style semantics: a departed peer
  stops being monitored) and remembered as *pending sources*;
* when a pending source revives, the subscription is redeployed once more
  to restore full coverage.

Delivery continuity: the delivery end -- valve, result buffer,
``on_result`` callbacks, BY-clause publisher and its channel -- belongs to
the subscription record, not to a deployment.  A redeployment only
re-points the valve at the replacement's root stream, so a handle obtained
before a failure keeps working after it, items a paused valve retains stay
retained, and a channel's remote readers keep reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.algebra.plan import ALERTER, EXISTING, UNION, PlanNode
from repro.monitor.subscription import (
    CANCELLED,
    DEPLOYED,
    PAUSED,
    RECOVERING,
    Subscription,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.manager import SubscriptionManager
    from repro.monitor.p2pm_peer import P2PMSystem


# --------------------------------------------------------------------------- #
# Plan surgery
# --------------------------------------------------------------------------- #


def prune_dead_sources(
    plan: PlanNode, down: frozenset[str]
) -> tuple[PlanNode | None, set[str]]:
    """Remove plan branches rooted at sources hosted on failed peers.

    A union keeps its surviving branches (monitoring degrades gracefully,
    like the dynamic-membership alerter dropping departed peers); any other
    node with a dead, non-substitutable source makes its whole subtree
    undeployable.  Returns the pruned plan (``None`` when nothing can run)
    plus the set of failed peers whose revival would restore coverage.
    """
    pending: set[str] = set()
    pruned = _prune(plan, down, pending)
    return pruned, pending


def _prune(node: PlanNode, down: frozenset[str], pending: set[str]) -> PlanNode | None:
    if node.kind == ALERTER and not node.params.get("membership_var"):
        peer = node.params.get("peer")
        if peer in down:
            pending.add(str(peer))
            return None
        return node
    if node.kind == EXISTING:
        provider = node.params.get("provider_peer") or node.params.get("peer")
        if provider in down:
            pending.add(str(provider))
            return None
        return node
    survivors = [_prune(child, down, pending) for child in node.children]
    if node.kind == UNION:
        node.children = [child for child in survivors if child is not None]
        return node if node.children else None
    if any(child is None for child in survivors):
        return None
    node.children = [child for child in survivors if child is not None]
    return node


# --------------------------------------------------------------------------- #
# Recovery events
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery decision, delivered to ``on_recovery`` listeners."""

    sub_id: str
    manager_peer: str
    #: what prompted it: a peer ``failure`` or a pending-source ``revival``
    trigger: str
    #: the peer that failed / revived
    peer_id: str
    #: ``recovering`` (redeployment starting), ``deployed`` (full coverage),
    #: ``degraded`` (some sources pruned), ``waiting`` (nothing deployable
    #: until a source revives), ``abandoned`` (the subscription's own
    #: manager peer failed), or ``intact`` (the manager came back and its
    #: untouched deployment needed no redeploy)
    outcome: str
    #: failed source peers whose revival will trigger another redeployment
    pending_sources: tuple[str, ...] = ()


RecoveryListener = Callable[[RecoveryEvent], None]


# --------------------------------------------------------------------------- #
# The recovery manager
# --------------------------------------------------------------------------- #


class RecoveryManager:
    """System-wide failure detector and redeployment driver."""

    def __init__(self, system: "P2PMSystem") -> None:
        self.system = system
        self.events: list[RecoveryEvent] = []
        self._listeners: list[RecoveryListener] = []
        #: sub_id -> failed source peers whose revival restores full coverage
        self.pending_sources: dict[str, set[str]] = {}
        self.recoveries = 0
        #: listener callbacks that raised (isolated, not propagated)
        self.listener_errors = 0

    def subscribe(self, listener: RecoveryListener) -> Callable[[], None]:
        """Register a callback invoked on every recovery event; returns an
        unsubscriber."""
        self._listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return unsubscribe

    # -- failure analysis -------------------------------------------------------

    def orphaned_resources(self, peer_id: str) -> list[object]:
        """Ledger entries stranded by ``peer_id``'s failure.

        Keys are told apart by shape, never by what a peer is called: a
        stream is ``(peer, stream_id)``, a channel subscription ``("proxy",
        consumer, producer, stream_id)``.  An entry is orphaned when the
        failed peer hosts the stream or carries the subscription's transport.
        """
        return [
            key
            for key in self.system.resources.keys()
            if (len(key) == 2 and key[0] == peer_id)
            or (len(key) == 4 and peer_id in (key[1], key[2]))
        ]

    def affected_subscriptions(self, peer_id: str) -> list[str]:
        """Subscriptions holding (directly or transitively) orphaned resources.

        The holders of a ledger key are the keys that consume it --
        downstream streams, channel subscriptions and subscription
        terminals ``("sub", sub_id, epoch)``, the only three-element keys.
        Walking holders upward from every orphaned key reaches exactly the
        terminals of the subscriptions that span the failed peer.
        """
        ledger = self.system.resources
        frontier: list[object] = self.orphaned_resources(peer_id)
        reached: set[object] = set(frontier)
        while frontier:
            for holder in ledger.holders(frontier.pop()):
                if holder not in reached:
                    reached.add(holder)
                    frontier.append(holder)
        return sorted({key[1] for key in reached if len(key) == 3})

    # -- lifecycle hooks --------------------------------------------------------

    def handle_peer_failure(self, peer_id: str) -> list[RecoveryEvent]:
        """React to a peer failure: recover every subscription spanning it."""
        produced: list[RecoveryEvent] = []
        for sub_id in self.affected_subscriptions(peer_id):
            located = self._locate(sub_id)
            if located is None:
                continue
            manager, record = located
            if record.status not in (DEPLOYED, PAUSED, RECOVERING):
                continue
            produced.append(self._recover(manager, record, "failure", peer_id))
        return produced

    def handle_peer_revival(self, peer_id: str) -> list[RecoveryEvent]:
        """React to a revival: restore coverage for subscriptions waiting on it."""
        produced: list[RecoveryEvent] = []
        for sub_id in sorted(self.pending_sources):
            if peer_id not in self.pending_sources.get(sub_id, set()):
                continue
            located = self._locate(sub_id)
            if located is None or located[1].status == CANCELLED:
                self.pending_sources.pop(sub_id, None)
                continue
            manager, record = located
            produced.append(self._recover(manager, record, "revival", peer_id))
        return produced

    # -- internals --------------------------------------------------------------

    def _locate(
        self, sub_id: str
    ) -> tuple["SubscriptionManager", Subscription] | None:
        for peer_id in self.system.peer_ids:
            manager = self.system.peer(peer_id).manager
            if sub_id in manager.database:
                return manager, manager.database.get(sub_id)
        return None

    def _recover(
        self,
        manager: "SubscriptionManager",
        record: Subscription,
        trigger: str,
        peer_id: str,
    ) -> RecoveryEvent:
        sub_id = record.sub_id
        manager_peer = manager.peer.peer_id
        # act on what the system *believes*: in detector mode this is the
        # confirmed set (ground truth lagged by the detection latency), so
        # recovery never consults the oracle it is meant to replace
        down = self.system.believed_down()
        if manager_peer in down:
            # the Subscription Manager itself is dead: nothing can be
            # redriven from it (its control messages would be dropped).
            # Remember it as a pending source, so its own revival re-drives
            # the subscription.
            pending = self.pending_sources.setdefault(sub_id, set())
            pending.add(manager_peer)
            return self._emit(
                sub_id, manager_peer, trigger, peer_id, "abandoned", tuple(sorted(pending))
            )
        if (
            trigger == "revival"
            and peer_id == manager_peer
            and record.task is not None
            and record.status in (DEPLOYED, PAUSED)
            and not (
                self.system.believed_down() & set(record.task.peers_involved())
            )
        ):
            # the manager was believed dead ("abandoned") while its deployment
            # ran on untouched -- nothing was torn down or pruned, and no peer
            # the task spans is believed down now.  A redeploy here would only
            # churn epochs, destroying reliable-channel outboxes that still
            # hold items undelivered during the outage; clear the marker
            # instead and let retransmission finish the job.
            self.pending_sources.pop(sub_id, None)
            return self._emit(sub_id, manager_peer, trigger, peer_id, "intact")
        # a pause issued before (or during) recovery survives any number of
        # waiting rounds: the valve outlives every deployment, paused or not
        was_paused = record.valve.paused
        if record.status in (DEPLOYED, PAUSED):
            manager.database.mark(sub_id, RECOVERING)
        # redeployment is synchronous, so announce the RECOVERING state first:
        # listeners observing handle.status here see the transition
        self._emit(sub_id, manager_peer, trigger, peer_id, "recovering")
        try:
            outcome, pending_peers = manager.redeploy(sub_id, down=down)
        except Exception:  # noqa: BLE001 - recovery must never crash the system
            outcome, pending_peers = "waiting", tuple(sorted(down))
        if outcome == "waiting":
            self.pending_sources[sub_id] = set(pending_peers)
        else:
            if pending_peers:
                self.pending_sources[sub_id] = set(pending_peers)
            else:
                self.pending_sources.pop(sub_id, None)
            manager.database.mark(sub_id, PAUSED if was_paused else DEPLOYED)
            self.recoveries += 1
        return self._emit(
            sub_id, manager_peer, trigger, peer_id, outcome, tuple(pending_peers)
        )

    def _emit(
        self,
        sub_id: str,
        manager_peer: str,
        trigger: str,
        peer_id: str,
        outcome: str,
        pending: tuple[str, ...] = (),
    ) -> RecoveryEvent:
        event = RecoveryEvent(sub_id, manager_peer, trigger, peer_id, outcome, pending)
        self.events.append(event)
        for listener in list(self._listeners):
            try:
                listener(event)
            except Exception:  # noqa: BLE001 - one bad listener must not
                # starve the others (or abort the recovery that emitted this)
                self.listener_errors += 1
        return event
