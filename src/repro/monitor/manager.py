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

import re
from contextlib import suppress
from typing import TYPE_CHECKING, Sequence

from repro.algebra.plan import JOIN, UNION, PlanNode
from repro.monitor.deployment import Deployer, DeploymentRecipe
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
from repro.p2pml.errors import P2PMLSyntaxError
from repro.p2pml.lexer import NUMBER, STRING
from repro.p2pml.parser import parse_subscription
from repro.xmlmodel.tree import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.p2pm_peer import P2PMPeer

#: Bound on ``P2PMSystem.plan_templates`` and ``.plan_shapes`` (each cleared wholesale when full).
TEMPLATE_TABLE_LIMIT = 4096
#: Bound on one template's ``recipes`` (cleared wholesale when full).
RECIPE_TABLE_LIMIT = 64
# A text's literals: a string whose contents no context rewrites (no space, '&',
# '<', '>', which ends a CDATA section, quote or backslash) and a number that is no
# part of a name.  Groups: a lifted string's quote and contents, a string the
# shape keeps, a lifted number.
_LITERALS = re.compile(rf"""(['"])([^\s&<>'"\\]*)\1|({STRING})|(?<![\w$-])({NUMBER})""")


def _parse(shapes: dict, text: str) -> SubscriptionAST:
    """``text``'s AST: its shape's AST with its literals bound in, once ``shapes``
    admits the shape (see ``_admit``); else ``text`` parsed."""
    parts = _LITERALS.split(text)
    literals = parts[2::5] + parts[4::5]  # strings, then numbers: None where a match lifts none
    del parts[2::5], parts[3::4]  # the shape: the texts between matches, each match's quote or kept string
    shape = shapes.get(key := tuple(parts))
    if shape is not None:
        return _bind(*shape, literals)
    ast = parse_subscription(text)
    if key not in shapes:
        if len(shapes) >= TEMPLATE_TABLE_LIMIT:
            shapes.clear()
        shapes[key] = _admit(parts, literals, ast)
    return ast


def _admit(parts: list, literals: list, ast: SubscriptionAST) -> tuple | None:
    """The shape parsed with a distinct mark in each literal, and where the marks
    landed; None unless every mark lands and binding ``literals`` gives ``ast``."""
    count, width = len(literals) // 2, len(f"{len(literals):o}")
    marks = [f"9{index:0{width}o}9" for index in range(len(literals))]  # digits: a number where one was
    text = "".join([
        chunk + (kept if kept is not None else quote + marks[index] + quote if quote else marks[count + index])
        for index, (chunk, quote, kept) in enumerate(zip(parts[::3], parts[1::3], parts[2::3]))
    ]) + parts[-1]
    found, slots = re.compile(f"9([0-7]{{{width}}})9"), {i for i, literal in enumerate(literals) if literal is not None}
    if not slots or len(found.findall(text)) != len(slots):
        return None
    try:
        shape = parse_subscription(text)
    except P2PMLSyntaxError:
        return None
    seen: set[int] = set()
    holes = _holes(shape, found, seen)
    return (shape, holes) if seen == slots and _bind(shape, holes, literals) == ast else None


def _holes(node, found: re.Pattern, seen: set[int]):
    """Where the marks landed under ``node``: ``((key, below), ...)``, ``below`` a
    literal's index (a whole string), a string's pieces (text, index, text, ...)
    or the holes under that field; None where none landed."""
    kind = node.__class__
    if kind is str:
        pieces = found.split(node)
        pieces[1::2] = indexes = [int(index, 8) for index in pieces[1::2]]
        seen.update(indexes)
        if len(pieces) == 3 and pieces[0] == pieces[2] == "":
            return pieces[1]
        return pieces if indexes else None
    if kind is Element:
        items = enumerate((node.tag, node.attrib, node.children, node.text))
    elif kind is list or kind is tuple:
        items = enumerate(node)
    else:  # an attribute dict or an AST node; None, a sign or a flag holds no mark
        items = (node if kind is dict else getattr(node, "__dict__", {})).items()
    return tuple((key, below) for key, value in items if (below := _holes(value, found, seen)) is not None) or None


def _bind(node, holes: tuple, literals: list):
    """``node`` with ``literals`` in its ``holes`` (see ``_holes``): the nodes on a
    hole's path are copied, every other node is shared."""
    kind = node.__class__
    if kind is Element:
        fields = [node.tag, node.attrib, node.children, node.text]
    else:
        fields = list(node) if kind is list or kind is tuple else dict(node if kind is dict else node.__dict__)
    for key, below in holes:
        if below.__class__ is int:
            fields[key] = literals[below]
        elif below.__class__ is tuple:
            fields[key] = _bind(fields[key], below, literals)
        else:
            fields[key] = "".join([literals[piece] if piece.__class__ is int else piece for piece in below])
    if kind is Element:
        return Element.fast_new(*fields)
    return fields if kind is list or kind is dict else tuple(fields) if kind is tuple else kind(**fields)


def _build_template(ast: SubscriptionAST, push_selections: bool) -> PlanTemplate:
    """Compile and optimise ``ast`` once, for every subscription to it."""
    plan = optimize_plan(compile_subscription(ast), push_selections=push_selections)
    key = reuse_cache_key(plan)  # fills every node's signature detail on the way
    fixed_placement = True  # the placement rule: repro.monitor.placement
    for node in plan.iter_nodes():
        operator_spec(node)
        if node.kind == JOIN or node.kind == UNION:
            fixed_placement = False
    return PlanTemplate(plan, push_selections, key, fixed_placement)


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
        stream_db = self.peer.system.stream_db
        stream_db.pending = stream_db.pending or {}  # the batch's descriptions reach KadoP in one write
        try:
            for index, subscription in enumerate(subscriptions):
                try:
                    handles.append(self._submit_one(subscription, sub_ids[index] if sub_ids is not None else None,
                                                    engine, deployer, push_selections, max_results))
                except Exception as exc:
                    # the already-deployed prefix must not vanish with the
                    # traceback: hand its handles to the caller with the error
                    raise SubmitManyError(index, handles, exc) from exc
        finally:
            stream_db.flush(hold=False)  # a failed batch's deployed prefix too
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
        template = self._template_for(subscription, push_selections)
        sub_id = sub_id or self.database.new_id(f"{self.peer.peer_id}.sub")
        # movable operators avoid believed-down and merely suspected peers (a
        # suspect then confirmed would trigger an immediate recovery)
        avoid = self.peer.system.avoid_peers()
        if engine is None:
            recipe, reuse_report = self._recipe(template, avoid), None
        else:
            plan, reuse_report = engine.apply(template)
            slot = engine.slot
            if slot is not None and slot.recipe is not None:
                recipe = slot.recipe  # a stamp adds the charges its one-off's placement made
                if not recipe.charges:
                    charges: dict[str, int] = {}
                    for node in plan.iter_nodes():
                        charges[node.placement] = charges.get(node.placement, 0) + 1
                    recipe.charges = tuple(charges.items())
            else:
                recipe = self._place(plan, avoid)
                if slot is not None:
                    slot.recipe = recipe

        record = Subscription(
            sub_id=sub_id,
            template=template,
            plan=recipe.plan,
            manager_peer=self.peer.peer_id,
            results=ResultBuffer(max_results) if max_results is not None else None,
        )
        self.database.add(record)

        try:
            task = deployer.deploy(recipe, record)
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

    def _recipe(self, template: PlanTemplate, avoid: frozenset[str]) -> DeploymentRecipe:
        """The template's recipe for this peer, placed on first use; a one-off
        when the template keeps none (placement reads the load).  One recipe
        serves every ``avoid`` set: see :mod:`repro.monitor.placement`."""
        recipes = template.recipes
        if recipes is None:
            return self._place(template.instantiate(), avoid)
        recipe = recipes.get(self.peer.peer_id)
        if recipe is None:
            if len(recipes) >= RECIPE_TABLE_LIMIT:
                recipes.clear()
            recipe = recipes[self.peer.peer_id] = self._place(template.instantiate(), avoid, {})
        return recipe

    def _place(self, plan: PlanNode, avoid: frozenset[str], charges: dict[str, int] | None = None) -> DeploymentRecipe:
        """Place ``plan`` and build its recipe: placement charges the live
        load, or ``charges``, which each stamp of the recipe then adds."""
        load = self.peer.system.placement_load if charges is None else charges
        place_plan(plan, manager_peer=self.peer.peer_id, load=load, avoid=avoid)
        return DeploymentRecipe(plan, self.peer.system.compiler, () if charges is None else tuple(charges.items()))

    def _template_for(
        self, subscription: str | SubscriptionAST | SubscriptionBuilder, push_selections: bool
    ) -> PlanTemplate:
        """What every plan is instantiated from: for a text the entry of
        ``P2PMSystem.plan_templates`` (compiled and optimised once per system and
        ``push_selections`` setting, from an AST parsed once per shape: see
        ``_parse``), for an AST or a builder a one-off."""
        if isinstance(subscription, SubscriptionBuilder):
            subscription = subscription.build()
        if not isinstance(subscription, str):
            return _build_template(subscription, push_selections)
        templates = self.peer.system.plan_templates
        template = templates.get((subscription, push_selections))
        if template is None:
            if len(templates) >= TEMPLATE_TABLE_LIMIT:
                templates.clear()
            template = _build_template(_parse(self.peer.system.plan_shapes, subscription), push_selections)
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
            pruned, pending = prune_dead_sources(record.template.instantiate(), down)
            if pruned is None:
                return "waiting", tuple(sorted(pending))
            recipe = self._place(pruned, down)
            # each redeployment gets a fresh stream-id epoch, so stale control
            # messages of the dead incarnation cannot reach its replacement
            record.epoch += 1
            task = self._deployer().deploy(recipe, record, predecessor=old_task)
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

        The valve stops reading and ends (EOS to the result buffer and the
        publisher, nothing to a result callback), the publisher's undo actions run, then
        the running deployment is released -- every step even if an earlier
        one fails.  Resources shared with other subscriptions (reused
        streams, shared alerters) survive; everything this subscription
        exclusively owns is torn down and its Stream Definition Database
        advertisements are retracted.  Returns False when the subscription
        was already cancelled.
        """
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
        record = self.database.get(sub_id)
        if record.status == PAUSED:
            return
        self.database.mark(sub_id, PAUSED)
        record.valve.pause()

    def resume(self, sub_id: str) -> None:
        """Restart delivery after :meth:`pause`, without redeployment."""
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
