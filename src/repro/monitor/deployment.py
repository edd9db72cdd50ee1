"""Deployment: turning a placed plan into running operators, streams and channels.

Each plan node is instantiated at its assigned peer.  Whenever an operator
consumes a stream produced at a *different* peer, the producer's stream is
published as a channel and the consumer subscribes to it -- exactly the
``send``/``receive`` pairs produced by the algebra's external-invocation
rewrite rule (Section 3.3) and the channels X, Y, M of the Figure 4 plan.
Every deployed stream is described in the Stream Definition Database so that
later subscriptions can reuse it (Section 5).

Deployment is *reversible*: every resource a plan instantiates (operator,
stream, channel, channel subscription, Stream Definition Database
advertisement) is an entry of the system's
:class:`~repro.monitor.lifecycle.ResourceLedger`, registered with its undo
actions and the ledger keys it consumes, and reference-counted by its
consumers.  A deployment's terminal, ``("sub", sub_id, epoch)``, is the top
of that graph: it holds the plan's root stream and connects it to the
subscription's delivery valve.  Releasing it disconnects the valve, and
resources whose last holder leaves are torn down and their advertisements
retracted, while streams still feeding other subscriptions (Section 5
reuse) survive untouched.  The delivery end itself -- valve, result buffer,
publisher -- belongs to the subscription record and outlives every
deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.algebra.operators import (
    DuplicateRemovalOperator,
    GroupOperator,
    JoinOperator,
    Operator,
    UnionOperator,
)
from repro.algebra.plan import (
    ALERTER,
    DISTINCT,
    EXISTING,
    FILTER,
    GROUP,
    JOIN,
    PUBLISH,
    UNION,
    PlanNode,
    plan_signature,
)
from repro.algebra.template import ValueRef
from repro.compile import CompiledPipeline
from repro.monitor.control import (
    RPC_CHANNEL_SUBSCRIBE,
    RPC_CHANNEL_UNSUBSCRIBE,
    RPC_DEPLOY_PREPARE,
)
from repro.monitor.lifecycle import ResourceLedger
from repro.net.errors import CircuitOpen
from repro.publishers import PublisherContext, create_publisher
from repro.streams.stream import Stream
from repro.xmlmodel.tree import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.p2pm_peer import P2PMPeer, P2PMSystem
    from repro.monitor.subscription import Subscription

UndoAction = Callable[[], None]
#: ``(input streams, output stream) -> (operator to record, stop-consuming
#: undo actions)``: the consumer-specific middle of :meth:`Deployer._deploy_output`
Wire = Callable[[list[Stream], Stream], tuple[object | None, list[UndoAction]]]


def _discard(bucket: list, item: object) -> None:
    """Remove ``item`` from ``bucket`` if still present (idempotent teardown)."""
    if item in bucket:
        bucket.remove(item)


@dataclass
class _StreamHandle:
    """Where a deployed (sub)plan's output lives."""

    peer_id: str
    stream: Stream | None
    stream_id: str
    #: canonical identity used in stream descriptions (original, never replica)
    original: tuple[str, str] = ("", "")

    def __post_init__(self) -> None:
        if self.original == ("", ""):
            self.original = (self.peer_id, self.stream_id)


@dataclass
class DeployedTask:
    """A running monitoring task (the deployment-side state of a subscription).

    User code should not reach into this object: the public surface is the
    :class:`~repro.monitor.handle.SubscriptionHandle` returned by
    ``P2PMPeer.subscribe()`` / ``SubscriptionManager.submit()``.
    """

    sub_id: str
    plan: PlanNode
    manager_peer: str
    #: the ledger holding this task's resources ...
    ledger: ResourceLedger
    #: ... and its terminal entry there, ``("sub", sub_id, epoch)``: holds
    #: the plan's root stream, and its undo disconnects the valve from it
    terminal: tuple[str, str, int]
    operators_by_peer: dict[str, list[Operator]] = field(default_factory=dict)
    channels_created: list[str] = field(default_factory=list)
    #: structural plan signature -> where that node's output channel lives;
    #: ``None`` marks a signature produced by several nodes (ambiguous, so
    #: the epoch handoff skips it).  Lets a recovery redeployment match each
    #: replacement operator to its predecessor's channel even though stream
    #: ids are epoch-namespaced.
    produced: dict[str, tuple[str, str] | None] = field(default_factory=dict)
    reuse_report: object | None = None

    @property
    def operator_count(self) -> int:
        return sum(len(ops) for ops in self.operators_by_peer.values())

    def peers_involved(self) -> list[str]:
        return sorted(self.operators_by_peer)

    def teardown(self) -> None:
        """Disconnect the valve and release every resource reference this task holds.

        One release of the terminal: the ledger runs every undo action and
        every release even if one fails (the first error is re-raised
        afterwards), so a transient failure cannot strand stale state such
        as an unretracted advertisement.  A second call finds nothing.
        """
        self.ledger.release(self.terminal)


class DynamicAlerterSource:
    """A source whose monitored peer set follows a membership stream.

    Implements ``for $c in inCOM($j)``: every ``p-join`` event connects the
    corresponding peer's alerter (creating it if needed), every ``p-leave``
    disconnects it ("inCOM removes peers from the collection of monitored
    peers").
    """

    def __init__(self, system: "P2PMSystem", alerter_function: str, output: Stream) -> None:
        self.system = system
        self.alerter_function = alerter_function
        self.output = output
        self._unsubscribe: dict[str, object] = {}

    @property
    def monitored_peers(self) -> list[str]:
        return sorted(self._unsubscribe)

    def on_membership_alert(self, item: object) -> None:
        if not isinstance(item, Element):
            return
        kind = item.attrib.get("kind")
        peer_id = item.attrib.get("peer")
        if not peer_id:
            return
        if kind == "join" and peer_id not in self._unsubscribe:
            if not self.system.has_peer(peer_id):
                return
            alerter = self.system.peer(peer_id).get_or_create_alerter(self.alerter_function)
            self._unsubscribe[peer_id] = alerter.output.subscribe(self._forward)
        elif kind == "leave" and peer_id in self._unsubscribe:
            self._unsubscribe.pop(peer_id)()

    def shutdown(self) -> None:
        """Disconnect from every monitored peer's alerter (teardown)."""
        while self._unsubscribe:
            _, unsubscribe = self._unsubscribe.popitem()
            unsubscribe()

    def _forward(self, item: object) -> None:
        if isinstance(item, Element) and not self.output.closed:
            self.output.emit(item)


class Deployer:
    """Instantiates placed plans on the peers of a :class:`P2PMSystem`."""

    def __init__(self, system: "P2PMSystem") -> None:
        self.system = system
        self._counter = 0
        self._epoch = 0
        self._predecessor: DeployedTask | None = None
        #: fusable segments of the plan being deployed, keyed by id(tail node)
        self._segments: dict[int, list[PlanNode]] = {}

    # -- public API -------------------------------------------------------------------

    def deploy(
        self,
        plan: PlanNode,
        record: "Subscription",
        predecessor: DeployedTask | None = None,
    ) -> DeployedTask:
        """Instantiate ``plan`` for ``record`` and connect its root stream to
        the record's delivery valve; ``record.epoch`` > 0 marks a recovery
        redeployment.

        Each epoch gets its own stream-id namespace so that control messages
        of a dead incarnation (a subscribe or EOS still in flight when a
        peer failed) can never be mistaken for traffic of its replacement.

        ``predecessor`` is the incarnation being replaced (still running:
        redeployment is make-before-break).  With reliable channels each
        replacement operator placed on the same peer as its predecessor
        adopts the orphaned outbox items the dead consumer never acked
        (:meth:`~repro.net.channel.ChannelRegistry.adopt_orphans`), so
        traffic emitted during the detection window survives the epoch
        swap.

        A deployment that raises tears down what it wired before the error
        propagates.
        """
        unplaced = plan.unplaced_nodes()
        if unplaced:
            raise ValueError(
                f"cannot deploy: {len(unplaced)} plan node(s) have no placement"
            )
        sub_id, manager_peer = record.sub_id, record.manager_peer
        if self.system.reliable_control:
            self._prepare_placements(plan, sub_id, manager_peer)
        ledger = self.system.resources
        task = DeployedTask(
            sub_id=sub_id,
            plan=plan,
            manager_peer=manager_peer,
            ledger=ledger,
            terminal=("sub", sub_id, record.epoch),
        )
        self._counter = 0
        self._epoch = record.epoch
        self._predecessor = predecessor
        try:
            self._segments = self.system.compiler.plan_segments(plan)
            if plan.kind == PUBLISH:
                handle = self._deploy_node(plan.children[0], task)
                consumer_peer_id = plan.placement
            else:
                handle = self._deploy_node(plan, task)
                consumer_peer_id = manager_peer
            input_stream, proxy_key = self._local_input(consumer_peer_id, handle, task)
            # the subscription terminal holds the plan's root stream alive
            inputs = [handle.original] if proxy_key is None else [proxy_key, handle.original]
            ledger.register(task.terminal, (record.valve.connect(input_stream),), inputs)
            if plan.kind == PUBLISH:
                self._deploy_publisher(plan, handle, task, record)
        except Exception:
            self._unwind(task)
            raise
        return task

    def _unwind(self, task: DeployedTask) -> None:
        """Release, newest first, every entry nothing holds but a foreign
        terminal (the only three-element keys): outside a deployment only
        terminals are unheld, so these are the failed deployment's pieces."""
        ledger = self.system.resources
        for key in reversed(ledger.keys()):
            if (len(key) != 3 or key == task.terminal) and not ledger.holders(key):
                try:
                    ledger.release(key)
                except Exception:  # noqa: BLE001 - the deployment's error is the one raised
                    pass

    def _prepare_placements(self, plan: PlanNode, sub_id: str, manager_peer: str) -> None:
        """Reliable-control prepare handshake: prove every placement is reachable.

        Before instantiating anything the manager round-trips a
        ``deploy.prepare`` RPC to every distinct remote placement peer of the
        plan.  An unreachable or dead peer surfaces as a typed
        :class:`~repro.net.errors.RpcError` *here* -- before any resource is
        created -- so a doomed deployment fails fast instead of leaving a
        partially-wired plan behind.
        """
        placements: set[str] = set()

        def walk(node: PlanNode) -> None:
            if node.placement and node.placement != manager_peer:
                placements.add(node.placement)
            for child in node.children:
                walk(child)

        walk(plan)
        if not placements:
            return
        manager = self.system.peer(manager_peer)
        for peer_id in sorted(placements):
            manager.rpc.call_sync(
                peer_id, RPC_DEPLOY_PREPARE, Element("prepare", {"subId": sub_id})
            )

    # -- node deployment -----------------------------------------------------------------

    def _next_stream_id(self, sub_id: str) -> str:
        self._counter += 1
        if self._epoch:
            return f"{sub_id}.e{self._epoch}.s{self._counter}"
        return f"{sub_id}.s{self._counter}"

    def _deploy_node(self, node: PlanNode, task: DeployedTask) -> _StreamHandle:
        chain = self._segments.get(id(node))
        if chain is not None:
            return self._deploy_segment(chain, task)
        if node.kind == ALERTER:
            return self._deploy_alerter(node, task)
        if node.kind == EXISTING:
            return _StreamHandle(
                peer_id=node.params.get("provider_peer", node.params["peer"]),
                stream=None,
                stream_id=node.params.get("provider_stream_id", node.params["stream_id"]),
                original=(node.params["peer"], node.params["stream_id"]),
            )
        if node.kind == PUBLISH:
            raise ValueError("publish nodes can only appear at the root of a plan")
        return self._deploy_operator(node, task)

    def _deploy_alerter(self, node: PlanNode, task: DeployedTask) -> _StreamHandle:
        peer = self.system.peer(node.placement)
        function = node.params.get("alerter", "alerter")
        if node.params.get("membership_var"):
            return self._deploy_dynamic_alerter(node, task, peer, function)
        alerter = peer.get_or_create_alerter(function)
        stream_id = alerter.output.stream_id
        key = (peer.peer_id, stream_id)
        ledger = self.system.resources
        if not ledger.known(key):
            # first subscription over this alerter: publish the channel and
            # the advertisement, and schedule their withdrawal for when the
            # last consumer releases the stream.  The alerter object itself
            # stays hosted (it keeps observing its external system) so a
            # later subscription finds it again.
            created_channel = peer.ensure_channel(stream_id, alerter.output)
            undo = [lambda: peer.net.unpublish_channel(stream_id)] if created_channel else []
            ledger.register(key, undo)
            doc_id = self.system.stream_db.publish_node(node, peer.peer_id, stream_id, [])
            undo.append(lambda: self.system.stream_db.retract(doc_id))
        self._record(task, peer.peer_id, None)
        return _StreamHandle(peer.peer_id, alerter.output, stream_id)

    def _deploy_dynamic_alerter(
        self, node: PlanNode, task: DeployedTask, peer: "P2PMPeer", function: str
    ) -> _StreamHandle:
        # deploy the membership stream (the node's child), then wire the
        # dynamic source to it
        membership_handle = self._deploy_node(node.children[0], task)

        def wire(inputs: list[Stream], output: Stream):
            dynamic = DynamicAlerterSource(self.system, function, output)
            unsubscribe_membership = inputs[0].subscribe(dynamic.on_membership_alert)
            peer.dynamic_sources.append(dynamic)
            return None, [
                unsubscribe_membership,
                dynamic.shutdown,
                lambda: _discard(peer.dynamic_sources, dynamic),
            ]

        return self._deploy_output(node, task, peer, [membership_handle], wire)

    def _deploy_operator(self, node: PlanNode, task: DeployedTask) -> _StreamHandle:
        peer = self.system.peer(node.placement)
        child_handles = [self._deploy_node(child, task) for child in node.children]

        def wire(inputs: list[Stream], output: Stream):
            operator = self._make_operator(node, output)
            for stream in inputs:
                operator.connect(stream)
            peer.operators.append(operator)
            return operator, [operator.detach, lambda: _discard(peer.operators, operator)]

        return self._deploy_output(node, task, peer, child_handles, wire)

    def _deploy_segment(self, chain: list[PlanNode], task: DeployedTask) -> _StreamHandle:
        """Deploy a fusable chain (head first) as one :class:`CompiledPipeline`.

        Every node still gets its own stream id, channel publication, Stream
        Definition Database advertisement, predecessor adoption link and
        ledger entry, exactly like an :class:`Operator` -- only the per-node
        processing is fused stage closures, and intermediate boundary streams
        are written through solely when an external consumer is attached.  A
        FILTER head joins its input stream's ``FilterGroup`` instead of subscribing.
        """
        peer = self.system.peer(chain[-1].placement)
        compiler = self.system.compiler
        program = compiler.compile_segment(chain, self._epoch)
        pipeline = CompiledPipeline(
            program, sub_id=task.sub_id, peer_id=peer.peer_id, stats=compiler.stats
        )
        handle = self._deploy_node(chain[0].children[0], task)
        peer.operators.append(pipeline)
        for index, node in enumerate(chain):

            def wire(inputs: list[Stream], output: Stream, index: int = index, node: PlanNode = node):
                (input_stream,) = inputs
                entry = pipeline.make_entry(index)
                if node.kind == FILTER:
                    group = peer.system.compiler.filter_group(input_stream, peer)
                    leave = group.join(
                        pipeline.stages[0].signature, node.params["subscription"], entry
                    )
                    pipeline.attach_entry(0, leave, group)
                else:
                    pipeline.attach_entry(index, input_stream.subscribe(entry))
                if index > 0:
                    # the continuation for the previous boundary is wired now;
                    # snapshot its liveness baselines (channel subscribers are
                    # checked directly, they need no baseline)
                    prev_boundary_stream = pipeline.boundaries[index - 1].stream
                    if input_stream is prev_boundary_stream:
                        watches = ((input_stream, input_stream.subscriber_count),)
                    else:  # reliable channels: continuation sits on a local proxy
                        watches = (
                            (prev_boundary_stream, prev_boundary_stream.subscriber_count),
                            (input_stream, input_stream.subscriber_count),
                        )
                    pipeline.seal_boundary(index - 1, watches)
                pipeline.add_boundary(
                    output, peer.net.channels.published(output.stream_id)
                )

                def detach() -> None:
                    # a reuse consumer may keep an upstream stage running
                    # after the deploying subscription cancelled: stay
                    # listed on the peer until the last stage goes
                    pipeline.detach_stage(index)
                    stage = pipeline.stages[index]
                    if stage.apply is not None:  # a FILTER has no table entry
                        peer.system.materialized.forget(stage.signature)
                    if pipeline.detached:
                        _discard(peer.operators, pipeline)

                return (pipeline if index == 0 else None), [detach]

            handle = self._deploy_output(node, task, peer, [handle], wire)
        return handle

    def _deploy_output(
        self,
        node: PlanNode,
        task: DeployedTask,
        peer: "P2PMPeer",
        child_handles: list[_StreamHandle],
        wire: Wire,
    ) -> _StreamHandle:
        """Instantiate ``node``'s output stream at ``peer`` and all that hangs off it.

        Shared by every node kind that produces a stream of its own: local
        inputs, output stream and channel, then the caller's ``wire`` installs
        whatever consumes the inputs, then predecessor link, the ledger entry
        and the advertisement.  The entry's undo order is: stop consuming,
        withdraw the output; then it releases its inputs: the channel
        subscriptions it reads through, then the streams it reads.
        """
        stream_id = self._next_stream_id(task.sub_id)
        input_streams: list[Stream] = []
        proxy_keys: list[object] = []
        for handle in child_handles:
            input_stream, proxy_key = self._local_input(peer.peer_id, handle, task)
            input_streams.append(input_stream)
            if proxy_key is not None:
                proxy_keys.append(proxy_key)
        output = peer.net.create_stream(stream_id)
        created_channel = peer.ensure_channel(stream_id, output)
        operator, stop_consuming = wire(input_streams, output)
        self._link_predecessor(node, task, peer.peer_id, stream_id, output)
        originals = [handle.original for handle in child_handles]
        withdraw = (lambda: peer.net.unpublish_channel(stream_id),) if created_channel else ()
        undo = [*stop_consuming, output.close, *withdraw, lambda: peer.net.drop_stream(stream_id)]
        # registered before the advertisement, which may raise
        self.system.resources.register((peer.peer_id, stream_id), undo, proxy_keys + originals)
        doc_id = self.system.stream_db.publish_node(
            node, peer.peer_id, stream_id, originals
        )
        undo.append(lambda: self.system.stream_db.retract(doc_id))
        self._record(task, peer.peer_id, operator)
        return _StreamHandle(peer.peer_id, output, stream_id)

    def _link_predecessor(
        self,
        node: PlanNode,
        task: DeployedTask,
        peer_id: str,
        stream_id: str,
        output: Stream,
    ) -> None:
        """Record where ``node``'s output lives; adopt its predecessor's orphans.

        The structural :func:`~repro.algebra.plan.plan_signature` is the
        epoch-stable identity of a plan node (stream ids are namespaced per
        epoch, placements may move).  When a recovery redeployment
        re-instantiates a node on the *same* peer as the incarnation being
        replaced, the retiring channel's dead-subscriber outboxes are handed
        over to the replacement's output stream before teardown can drop
        them.  Signatures produced by several nodes of one plan are marked
        ambiguous and skipped -- a wrong handoff would replay items into an
        unrelated branch.
        """
        sig = plan_signature(node)
        task.produced[sig] = None if sig in task.produced else (peer_id, stream_id)
        if not self.system.reliable_channels or self._predecessor is None:
            return
        prev = self._predecessor.produced.get(sig)
        if prev is not None and prev[0] == peer_id and prev[1] != stream_id:
            self.system.peer(peer_id).net.channels.adopt_orphans(prev[1], output)

    def _make_operator(self, node: PlanNode, output: Stream) -> Operator:
        if node.kind == UNION:
            return UnionOperator(output)
        if node.kind == JOIN:
            return JoinOperator(
                node.params["left_var"],
                node.params["right_var"],
                node.params["predicate"],
                output,
                window=node.params.get("window"),
            )
        if node.kind == DISTINCT:
            return DuplicateRemovalOperator(output=output)
        if node.kind == GROUP:
            key = node.params.get("key")
            if isinstance(key, str):
                key = ValueRef.attribute(node.params.get("var", "item"), key)
            return GroupOperator(key, every=node.params.get("every"), output=output,
                                 default_var=node.params.get("var"))
        raise ValueError(f"cannot instantiate operator for plan node kind {node.kind!r}")

    # -- cross-peer wiring ------------------------------------------------------------------

    def _local_input(
        self, consumer_peer_id: str, handle: _StreamHandle, task: DeployedTask
    ) -> tuple[Stream, tuple[str, str, str, str] | None]:
        """A stream local to ``consumer_peer_id`` carrying ``handle``'s items,
        and the ledger key of the channel subscription it is read through
        (``None`` when the stream itself is local).

        Cross-peer consumption allocates a channel subscription (and possibly
        a replica advertisement): one ledger entry shared between every local
        consumer of the same channel, which the caller's entry holds as an
        input, so it is only torn down when the last consumer leaves.

        With reliable channels even *same-peer* consumption goes through a
        local proxy subscription instead of the direct-stream shortcut:
        takeover claims (:meth:`ChannelRegistry.claim_orphans`) replay into
        the claiming subscriber's proxy, so every consumer -- local or
        remote -- must present one.  With reliable control the subscribe is
        announced over RPC (retried, typed failure) rather than as a
        fire-and-forget message, and the unsubscribe undo follows suit.
        """
        if (
            handle.peer_id == consumer_peer_id
            and handle.stream is not None
            and not self.system.reliable_channels
        ):
            return handle.stream, None
        producer = self.system.peer(handle.peer_id)
        if handle.stream is not None:
            producer.ensure_channel(handle.stream_id, handle.stream)
        consumer = self.system.peer(consumer_peer_id)
        ledger = self.system.resources
        proxy_key = ("proxy", consumer_peer_id, handle.peer_id, handle.stream_id)
        first_local_consumer = not ledger.known(proxy_key)
        channels = consumer.net.channels
        rpc_announced = (
            self.system.reliable_control and handle.peer_id != consumer_peer_id
        )
        newly_subscribed = rpc_announced and not channels.has_subscription(
            handle.peer_id, handle.stream_id
        )
        proxy = channels.subscribe_remote(
            handle.peer_id, handle.stream_id, announce=not rpc_announced
        )
        undo: list[UndoAction] = []
        if first_local_consumer:
            if rpc_announced:

                def _unsubscribe_via_rpc() -> None:
                    channels.unsubscribe_remote(
                        handle.peer_id, handle.stream_id, announce=False
                    )
                    try:
                        # async: teardown must not block on a slow publisher
                        consumer.rpc.call(
                            handle.peer_id,
                            RPC_CHANNEL_UNSUBSCRIBE,
                            Element(
                                "unsubscribe",
                                {
                                    "channelId": handle.stream_id,
                                    "subscriber": consumer_peer_id,
                                },
                            ),
                        )
                    except CircuitOpen:
                        # publisher believed dead: its subscriber set died
                        # with it, nothing to withdraw from
                        pass

                undo.append(_unsubscribe_via_rpc)
            else:
                undo.append(
                    lambda: consumer.net.channels.unsubscribe_remote(
                        handle.peer_id, handle.stream_id
                    )
                )
            # a replica provider is itself carried by another channel
            # subscription: hold that upstream entry so the transport chain
            # outlives the subscription that first created it
            upstream_key = self.system.replica_providers.get(
                (handle.peer_id, handle.stream_id)
            )
            inputs = () if upstream_key in (None, proxy_key) else (upstream_key,)
            # registered before the subscribe RPC and the replica advertisement,
            # which may raise; the replica's undo actions go in front
            ledger.register(proxy_key, undo, inputs)
        if newly_subscribed:
            consumer.rpc.call_sync(
                handle.peer_id,
                RPC_CHANNEL_SUBSCRIBE,
                Element(
                    "subscribe",
                    {"channelId": handle.stream_id, "subscriber": consumer_peer_id},
                ),
            )
        task.channels_created.append(f"#{handle.stream_id}@{handle.peer_id}")
        if first_local_consumer and handle.peer_id != consumer_peer_id:
            # the consumer re-publishes the proxy of a remote provider as a
            # channel, so it genuinely can provide the stream to others, and
            # declares the replica; a proxy of a provider on its own peer is
            # a copy of a local stream, and publishing it would chain a
            # replica of a replica onto every such consumer
            if consumer.ensure_channel(proxy.stream_id, proxy):
                undo.insert(0, lambda: consumer.net.unpublish_channel(proxy.stream_id))
            replica_doc = self.system.stream_db.publish_replica(
                handle.original[0], handle.original[1], consumer_peer_id, proxy.stream_id
            )
            replica_id = (consumer_peer_id, proxy.stream_id)
            self.system.replica_providers[replica_id] = proxy_key
            undo[:0] = [
                lambda: self.system.stream_db.retract(replica_doc),
                lambda: self.system.replica_providers.pop(replica_id, None),
            ]
        return proxy, proxy_key

    # -- publishers ---------------------------------------------------------------------------

    def _deploy_publisher(
        self, node: PlanNode, handle: _StreamHandle, task: DeployedTask, record: "Subscription"
    ) -> None:
        """Build the BY-clause publisher on the record's valve, or, for a
        redeployment, describe its stream over the new root.

        The publisher and its context belong to the record: the context's
        undo actions, the publisher's own in front, run at cancel.  The
        context is on the record before the factory runs, so a factory that
        raises leaves what it allocated where the manager can undo it.
        """
        mode = node.params.get("mode", "local")
        if mode == "local":
            return
        peer = self.system.peer(node.placement)
        ctx = record.publication
        if ctx is not None:
            ctx.readvertise(handle.original)
        else:
            ctx = record.publication = PublisherContext(
                peer=peer,
                params=node.params,
                system=self.system,
                sub_id=task.sub_id,
                operand=handle.original,
                node=node,
            )
            publisher = record.publisher = create_publisher(mode, ctx)
            publisher.connect(record.valve)
            peer.publishers.append(publisher)
            ctx.undo[:0] = [publisher.disconnect, lambda: _discard(peer.publishers, publisher)]
        task.channels_created.extend(ctx.channels_created)
        self._record(task, peer.peer_id, None)

    # -- bookkeeping -----------------------------------------------------------------------------

    @staticmethod
    def _record(task: DeployedTask, peer_id: str, operator: Operator | None) -> None:
        bucket = task.operators_by_peer.setdefault(peer_id, [])
        if operator is not None:
            bucket.append(operator)
