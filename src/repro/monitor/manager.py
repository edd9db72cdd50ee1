"""The Subscription Manager (Section 3.1 / Figure 3).

"When a user requests a monitoring task in P2PML, she forwards the
subscription to a peer which becomes Subscription Manager for this
subscription. ... The Subscription Manager is in charge of translating the
subscription into a monitoring plan, optimizing this plan, and then
deploying the optimized plan."

The manager also owns the rest of the subscription's life: ``submit()``
returns a :class:`~repro.monitor.handle.SubscriptionHandle`, and
``cancel()`` / ``pause()`` / ``resume()`` drive the status transitions
recorded in the Subscription Database.
"""

from __future__ import annotations

from contextlib import suppress
from typing import TYPE_CHECKING, Sequence

from repro.monitor.deployment import Deployer
from repro.monitor.handle import SubscriptionHandle
from repro.monitor.lifecycle import ResultBuffer, run_all
from repro.monitor.optimizer import optimize_plan
from repro.monitor.placement import place_plan
from repro.monitor.recovery import prune_dead_sources
from repro.monitor.reuse import ReuseEngine, reuse_cache_key
from repro.monitor.stream_db import operator_spec
from repro.monitor.subscription import (
    CANCELLED,
    DEPLOYED,
    PAUSED,
    RECOVERING,
    Subscription,
    SubscriptionDatabase,
    SubscriptionStateError,
)
from repro.p2pml.ast import SubscriptionAST
from repro.p2pml.builder import SubscriptionBuilder
from repro.p2pml.compiler import PlanTemplate, compile_subscription
from repro.p2pml.parser import parse_subscription

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.p2pm_peer import P2PMPeer

#: Bound on ``P2PMSystem.plan_templates`` (cleared wholesale when full).
TEMPLATE_TABLE_LIMIT = 4096


def _build_template(ast: SubscriptionAST, push_selections: bool) -> PlanTemplate:
    """Compile and optimise ``ast`` once, under the empty sub-id, for every subscription to it."""
    plan = optimize_plan(compile_subscription(ast, ""), push_selections=push_selections)
    key = reuse_cache_key(plan)  # fills every node's signature detail on the way
    for node in plan.iter_nodes():
        operator_spec(node)
    return PlanTemplate(ast, plan, push_selections, key)


class SubmitManyError(RuntimeError):
    """A batch submission failed partway through.

    Entries before :attr:`index` were fully deployed and **stay live**;
    their handles are on :attr:`handles` so the caller can keep or cancel
    them.  The failing entry itself left no record behind (a failed
    deployment never leaves a phantom), and the entries after it were not
    attempted.  The original error is chained as ``__cause__``.
    """

    def __init__(self, index: int, handles: list[SubscriptionHandle], cause: BaseException):
        super().__init__(
            f"batch submission failed at entry {index} "
            f"({len(handles)} earlier entries deployed and still live): {cause}"
        )
        self.index = index
        self.handles = handles


class SubscriptionManager:
    """Per-peer manager: compile, optimise, reuse, place, deploy and retire."""

    def __init__(self, peer: "P2PMPeer") -> None:
        self.peer = peer
        self.database = SubscriptionDatabase()

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        subscription: str | SubscriptionAST | SubscriptionBuilder,
        sub_id: str | None = None,
        reuse: bool = True,
        push_selections: bool = True,
        max_results: int | None = None,
    ) -> SubscriptionHandle:
        """Accept a subscription and deploy its monitoring task.

        ``subscription`` may be P2PML text, a pre-parsed AST, or a
        :class:`~repro.p2pml.builder.SubscriptionBuilder` -- all compile to
        the same plans.  ``reuse`` and ``push_selections`` exist so that
        benchmarks can measure the effect of disabling the corresponding
        optimisation.  ``max_results`` opts into a bounded result buffer
        readable through ``handle.results()``; without it results are
        consumed via ``handle.on_result()`` or the configured publisher.
        """
        return self._submit_one(
            subscription,
            sub_id,
            engine=self._reuse_engine() if reuse else None,
            deployer=self._deployer(),
            push_selections=push_selections,
            max_results=max_results,
        )

    def submit_many(
        self,
        subscriptions: Sequence[str | SubscriptionAST | SubscriptionBuilder],
        sub_ids: Sequence[str] | None = None,
        reuse: bool = True,
        push_selections: bool = True,
        max_results: int | None = None,
    ) -> list[SubscriptionHandle]:
        """Batch ingestion: deploy many subscriptions through one shared context.

        Equivalent to calling :meth:`submit` in a loop (same handles in the
        same order, same reuse reports, same deployed operators), but the
        whole batch shares one reuse engine (and with it the system-wide
        signature cache) and one deployer, so overlapping
        subscriptions pay the discovery/reuse machinery once instead of once
        each.  Later entries reuse streams deployed by earlier entries of
        the same batch, exactly as sequential submission would.

        A failing entry fails alone: earlier entries stay deployed, and the
        raised :class:`SubmitManyError` carries their handles (and the
        failing index) so the caller can keep or cancel them.
        """
        if sub_ids is not None and len(sub_ids) != len(subscriptions):
            raise ValueError(
                f"sub_ids has {len(sub_ids)} entries for "
                f"{len(subscriptions)} subscriptions"
            )
        engine = self._reuse_engine() if reuse else None
        deployer = self._deployer()
        handles: list[SubscriptionHandle] = []
        for index, subscription in enumerate(subscriptions):
            try:
                handles.append(
                    self._submit_one(
                        subscription,
                        sub_ids[index] if sub_ids is not None else None,
                        engine=engine,
                        deployer=deployer,
                        push_selections=push_selections,
                        max_results=max_results,
                    )
                )
            except Exception as exc:
                # the already-deployed prefix must not vanish with the
                # traceback: hand its handles to the caller with the error
                raise SubmitManyError(index, handles, exc) from exc
        return handles

    def _reuse_engine(self) -> ReuseEngine:
        system = self.peer.system
        return ReuseEngine(
            system.stream_db,
            network=system.network,
            consumer_peer=self.peer.peer_id,
            signature_cache=system.reuse_cache,
        )

    def _deployer(self) -> Deployer:
        return Deployer(self.peer.system)

    def _submit_one(
        self,
        subscription: str | SubscriptionAST | SubscriptionBuilder,
        sub_id: str | None,
        engine: ReuseEngine | None,
        deployer: Deployer,
        push_selections: bool,
        max_results: int | None,
    ) -> SubscriptionHandle:
        # the sharded runtime freezes deployment once its workers fork
        self.peer.system.runtime.check_mutable("subscribe")
        template = self._template_for(subscription, push_selections)
        sub_id = sub_id or self.database.new_id(f"{self.peer.peer_id}.sub")
        plan = template.instantiate(sub_id)

        reuse_report = None
        if engine is not None:
            plan, reuse_report = engine.apply(plan, template.key)

        # a subscription submitted while peers are down must not place
        # movable operators on them (recovery redeploys the same way)
        place_plan(
            plan,
            manager_peer=self.peer.peer_id,
            load=self.peer.system.placement_load,
            # believed-down plus merely-suspected peers: placing onto a
            # suspect that is then confirmed would trigger an immediate
            # recovery, so suspicion is enough to steer placement away
            avoid=self.peer.system.avoid_peers(),
            colocate=self.peer.system.placement_mode,
        )

        record = Subscription(
            sub_id=sub_id,
            template=template,
            plan=plan,
            manager_peer=self.peer.peer_id,
            results=ResultBuffer(max_results) if max_results is not None else None,
        )
        self.database.add(record)

        try:
            task = deployer.deploy(plan, record)
        except Exception:
            # a failed deployment must not poison the sub_id with a phantom
            # pending record, nor keep a name its publisher claimed: the
            # caller may retry under the same id
            self.database.remove(sub_id)
            if record.publication is not None:
                with suppress(Exception):  # the deployment's error is the one raised
                    run_all(record.publication.undo)
            raise
        task.reuse_report = reuse_report
        record.task = task
        self.database.mark(sub_id, DEPLOYED)
        return SubscriptionHandle(self, record)

    def _template_for(
        self, subscription: str | SubscriptionAST | SubscriptionBuilder, push_selections: bool
    ) -> PlanTemplate:
        """What every plan is instantiated from: for a text the entry of
        ``P2PMSystem.plan_templates`` (parsed, compiled and optimised once per
        system and ``push_selections`` setting), for an AST or a builder a one-off."""
        if isinstance(subscription, SubscriptionBuilder):
            subscription = subscription.build()
        if not isinstance(subscription, str):
            return _build_template(subscription, push_selections)
        templates = self.peer.system.plan_templates
        template = templates.get((subscription, push_selections))
        if template is None:
            if len(templates) >= TEMPLATE_TABLE_LIMIT:
                templates.clear()
            template = _build_template(parse_subscription(subscription), push_selections)
            templates[subscription, push_selections] = template
        return template

    def handle(self, sub_id: str) -> SubscriptionHandle:
        """A (new) handle on an already-registered subscription."""
        return SubscriptionHandle(self, self.database.get(sub_id))

    # -- recovery ---------------------------------------------------------------

    def redeploy(
        self, sub_id: str, down: frozenset[str]
    ) -> tuple[str, tuple[str, ...]]:
        """Redeploy the subscription around ``down`` peers, then retire the old task.

        Called by the :class:`~repro.monitor.recovery.RecoveryManager` while
        the subscription is ``RECOVERING``.  The plan is instantiated afresh from
        the record's template (reuse is deliberately skipped: advertisements may be
        mid-retraction during a failure), union branches whose source peer
        is down are pruned, and placement avoids every down peer.  The
        record's delivery end -- valve, result buffer, ``on_result``
        callbacks, publisher -- stays where it is: the valve stops reading
        the old root stream here and reads the replacement's once it is
        deployed, so existing handles keep delivering.

        The replacement is deployed *before* the old incarnation is torn
        down (make-before-break): shared resources -- alerter channels in
        particular -- stay refcounted above zero across the swap, so their
        reliable-mode outboxes survive and the replacement's channel
        subscriptions can claim the items the dead consumer never acked
        (:meth:`~repro.net.channel.ChannelRegistry.claim_orphans`).  Tearing
        down first would unpublish those channels and silently drop the
        detection-window traffic with them.

        Returns ``(outcome, pending_sources)`` where outcome is
        ``"deployed"`` (full plan), ``"degraded"`` (some sources pruned) or
        ``"waiting"`` (nothing deployable until a pending source revives).
        """
        record = self.database.get(sub_id)
        old_task, record.task = record.task, None
        # what reaches the old root stream from now on reaches nobody, and
        # teardown closing it cannot end the delivery stream
        record.valve.disconnect()
        try:
            pruned, pending = prune_dead_sources(record.template.instantiate(sub_id), down)
            if pruned is None:
                return "waiting", tuple(sorted(pending))
            place_plan(
                pruned,
                manager_peer=self.peer.peer_id,
                load=self.peer.system.placement_load,
                avoid=down,
            )
            # each redeployment gets a fresh stream-id epoch, so stale control
            # messages of the dead incarnation cannot reach its replacement
            record.epoch += 1
            task = self._deployer().deploy(pruned, record, predecessor=old_task)
        finally:
            if old_task is not None:
                try:
                    old_task.teardown()
                except Exception:  # noqa: BLE001 - teardown around a dead peer is best-effort
                    pass
        record.plan = pruned
        record.task = task
        return ("degraded" if pending else "deployed"), tuple(sorted(pending))

    # -- lifecycle verbs --------------------------------------------------------

    def cancel(self, sub_id: str) -> bool:
        """Retire a subscription: close its delivery end, release references,
        mark cancelled.

        The valve stops reading and ends (EOS to the result buffer, the
        callbacks and the publisher), the publisher's undo actions run, then
        the running deployment is released -- every step even if an earlier
        one fails.  Resources shared with other subscriptions (reused
        streams, shared alerters) survive; everything this subscription
        exclusively owns is torn down and its Stream Definition Database
        advertisements are retracted.  Returns False when the subscription
        was already cancelled.
        """
        self.peer.system.runtime.check_mutable("cancel")
        record = self.database.get(sub_id)
        if record.status == CANCELLED:
            return False
        self.database.mark(sub_id, CANCELLED)
        valve = record.valve
        publication = record.publication.undo if record.publication is not None else ()
        deployment = (record.task.teardown,) if record.task is not None else ()
        run_all([valve.disconnect, valve.close, *publication, *deployment])
        return True

    def pause(self, sub_id: str) -> None:
        """Suspend result delivery; the deployed plan keeps running."""
        self.peer.system.runtime.check_mutable("pause")
        record = self.database.get(sub_id)
        if record.status == PAUSED:
            return
        self.database.mark(sub_id, PAUSED)
        record.valve.pause()

    def resume(self, sub_id: str) -> None:
        """Restart delivery after :meth:`pause`, without redeployment."""
        self.peer.system.runtime.check_mutable("resume")
        record = self.database.get(sub_id)
        if record.status == DEPLOYED:
            return
        if record.status == RECOVERING:
            raise SubscriptionStateError(
                f"subscription {sub_id!r} is recovering from a peer failure; "
                "delivery resumes automatically once it is redeployed"
            )
        self.database.mark(sub_id, DEPLOYED)
        record.valve.resume()

    # -- introspection ----------------------------------------------------------

    def active_subscriptions(self) -> list[str]:
        """Ids of subscriptions currently deployed, paused or recovering."""
        return sorted(
            record.sub_id
            for record in (
                self.database.with_status(DEPLOYED)
                + self.database.with_status(PAUSED)
                + self.database.with_status(RECOVERING)
            )
        )


__all__ = ["SubmitManyError", "SubscriptionManager", "SubscriptionStateError"]
