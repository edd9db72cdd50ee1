"""P2PM peers and the system facade tying everything together.

A :class:`P2PMPeer` corresponds to Figure 2: it runs a Subscription Manager,
may host alerters, stream processors and publishers, and exchanges streams
with other peers through channels.  A :class:`P2PMSystem` owns the simulated
network, the KadoP index and the shared Stream Definition Database, and is
the registry through which deployment finds peers.
"""

from __future__ import annotations

from typing import Callable

from repro.alerters import Alerter, AXMLRepository, create_alerter
from repro.compile import (
    CompiledPipeline,
    CompiledPlanCache,
    CompileStats,
    MaterializedTable,
    PlanCompiler,
)
from repro.dht.chord import ChordRing
from repro.dht.kadop import KadopIndex
from repro.monitor.control import ControlPlaneRouter, register_control_methods
from repro.monitor.lifecycle import ResourceLedger
from repro.monitor.manager import SubscriptionManager
from repro.monitor.recovery import RecoveryManager
from repro.monitor.reuse import ReuseSignatureCache
from repro.monitor.stream_db import StreamDefinitionDatabase
from repro.net.detector import HeartbeatDetector
from repro.net.faults import FaultModel
from repro.net.peer import Peer
from repro.net.rpc import RpcEndpoint
from repro.net.runtime import RUNTIMES, create_runtime
from repro.net.simnet import SimNetwork
from repro.p2pml.compiler import PlanTemplate
from repro.streams.stream import Stream
from repro.xmlmodel.axml import ServiceRegistry

AlerterHook = Callable[[Alerter], None]


class P2PMSystem:
    """A whole monitoring deployment: network + peers + Stream Definition DB.

    Failure handling comes in two modes:

    * ``failure_mode="oracle"`` (the default, backwards compatible):
      :meth:`fail_peer` synchronously notifies the DHT and the recovery
      manager -- the perfect failure oracle no real deployment has.
    * ``failure_mode="detector"``: kills are *silent*.  A
      :class:`~repro.net.detector.HeartbeatDetector` pings a seeded
      neighbor set every :meth:`tick`; its confirmations (not the oracle)
      drive DHT re-replication, channel-subscriber death marking and
      recovery redeployment, and its rejoin handshake replaces revive
      notifications.  Channels switch to acknowledged delivery with
      per-tick retransmission (the derived ``reliable_channels`` attribute).

    Orthogonally, ``reliable_control=True`` routes Stream Definition
    Database publications/retractions and deployment control messages
    through the retrying RPC layer (:mod:`repro.monitor.control`), so a
    lossy network yields typed errors instead of silently lost control ops.
    """

    def __init__(
        self,
        seed: int = 0,
        fault_model: FaultModel | None = None,
        failure_mode: str = "oracle",
        reliable_control: bool = False,
        runtime: str = "single",
        shards: int = 2,
        shard_assigner=None,
        shard_turn_timeout: float = 30.0,
    ) -> None:
        if failure_mode not in ("oracle", "detector"):
            raise ValueError(
                f"failure_mode must be 'oracle' or 'detector', got {failure_mode!r}"
            )
        if runtime not in RUNTIMES:
            raise ValueError(f"runtime must be one of {RUNTIMES}, got {runtime!r}")
        if runtime == "sharded":
            # v1 sharded restrictions: detection, retransmission and retrying
            # control RPCs all assume one global clock and one event heap
            if failure_mode != "oracle":
                raise ValueError(
                    "runtime='sharded' requires failure_mode='oracle' "
                    "(heartbeat detection needs a global clock)"
                )
            if reliable_control:
                raise ValueError(
                    "runtime='sharded' does not support reliable_control=True"
                )
        #: sharded runs want whole pipelines inside one worker: colocating
        #: movable operators at the manager peer keeps cross-shard traffic
        #: down to source->pipeline hops
        self.placement_mode = "manager" if runtime == "sharded" else "source"
        self.network = SimNetwork(seed=seed, fault_model=fault_model)
        self.kadop = KadopIndex(ChordRing())
        self.stream_db = StreamDefinitionDatabase(self.kadop)
        self.failure_mode = failure_mode
        self.reliable_control = reliable_control
        #: acknowledged channel delivery: on exactly when the failure oracle
        #: is off (detection latency opens a loss window the
        #: retransmit/takeover machinery must cover)
        self.reliable_channels = failure_mode == "detector"
        self.detector: HeartbeatDetector | None = None
        if failure_mode == "detector":
            self.detector = HeartbeatDetector(self.network, seed=seed)
            self.detector.on_confirm = self._on_peer_confirmed_down
            self.detector.on_rejoin = self._on_peer_rejoined
        if reliable_control:
            self.stream_db.router = ControlPlaneRouter(self)
        #: interned reuse outcomes shared by every peer's subscription
        #: manager: identical subscriptions short-circuit straight to their
        #: matched plan while the Stream Definition Database is unchanged
        self.reuse_cache = ReuseSignatureCache()
        #: refcounted registry of deployed resources; cancellation releases
        #: references and tears down what nothing else holds (Section 5 reuse)
        self.resources = ResourceLedger()
        #: provenance of replica streams: (replica_peer, replica_stream) ->
        #: ledger key of the channel subscription that carries it, so a
        #: consumer picking a replica provider keeps the transport chain alive
        self.replica_providers: dict[tuple[str, str], object] = {}
        #: operators assigned per peer so far; shared across subscription
        #: managers so that placement balances the load globally
        self.placement_load: dict[str, int] = {}
        #: detects orphaned resources after a peer failure and redeploys the
        #: affected subscriptions on surviving peers
        self.recovery = RecoveryManager(self)
        #: plan compiler: fused pipelines, one shared filter per source stream
        #: and a system-wide materialized-expression table (cross-plan CSE)
        self.materialized = MaterializedTable()
        self.compile_cache = CompiledPlanCache()
        self.compile_stats = CompileStats()
        self.compiler = PlanCompiler(
            self.materialized, self.compile_cache, self.compile_stats
        )
        #: (P2PML text, push_selections) -> plan template, shared by every peer's
        #: subscription manager (cleared wholesale at ``TEMPLATE_TABLE_LIMIT``)
        self.plan_templates: dict[tuple[str, bool], PlanTemplate] = {}
        self._peers: dict[str, P2PMPeer] = {}
        #: execution backend: who drains the event scheduler(s), and where
        #: (see :mod:`repro.net.runtime`)
        self.runtime = create_runtime(
            runtime,
            self,
            shards=shards,
            assigner=shard_assigner,
            shard_turn_timeout=shard_turn_timeout,
        )

    # -- peers ------------------------------------------------------------------

    def add_peer(
        self, peer_id: str, coordinates: tuple[float, float] | None = None
    ) -> "P2PMPeer":
        """Create a new P2PM peer and register it with the network and the DHT."""
        self.runtime.check_lifecycle("add_peer")
        if peer_id in self._peers:
            raise ValueError(f"peer {peer_id!r} already exists")
        peer = P2PMPeer(peer_id, self, coordinates)
        self._peers[peer_id] = peer
        # every P2PM peer also participates in the storage of the Stream
        # Definition Database (KadoP is itself a P2P system)
        if peer_id not in self.kadop.ring:
            self.kadop.ring.join(peer_id)
        if self.detector is not None:
            self.detector.attach(peer.net)
        peer.net.channels.reliable = self.reliable_channels
        return peer

    def peer(self, peer_id: str) -> "P2PMPeer":
        try:
            return self._peers[peer_id]
        except KeyError as exc:
            raise KeyError(f"unknown P2PM peer {peer_id!r}") from exc

    def has_peer(self, peer_id: str) -> bool:
        return peer_id in self._peers

    @property
    def peer_ids(self) -> list[str]:
        return sorted(self._peers)

    def run(self, max_steps: int | None = None) -> int:
        """Deliver pending network messages (returns how many were delivered).

        Delegated to the execution runtime: the single-process backend drains
        the one event heap in place; the sharded backend runs one lock-step
        exchange epoch across its workers and harvests results back into the
        local handles.
        """
        return self.runtime.run(max_steps)

    # -- execution runtime -------------------------------------------------------

    def start_runtime(self) -> None:
        """Freeze deployment and hand execution to the runtime backend.

        A no-op for the default single-process runtime.  For
        ``runtime="sharded"`` this forks the worker processes: every peer,
        operator and pending message moves to its owning shard, and further
        deployment mutation (subscribe/cancel/pause/resume, peer churn)
        raises until :meth:`shutdown`.
        """
        self.runtime.start()

    def shutdown(self) -> None:
        """Release runtime resources (worker processes); idempotent."""
        self.runtime.shutdown()

    def partition(self, name: str, *groups) -> None:
        """Partition the network (applied in every shard when sharded)."""
        self.runtime.control("partition", name, tuple(groups))

    def heal(self, name: str) -> None:
        """Heal a named partition (applied in every shard when sharded)."""
        self.runtime.control("heal", name)

    def set_fault_model(self, fault_model: FaultModel | None) -> None:
        """Swap the network fault model (applied in every shard when sharded)."""
        self.runtime.control("faults", fault_model)

    def drive_alerter(self, peer_id: str, function: str, method: str, *args):
        """Invoke ``method(*args)`` on the alerter hosting ``function`` at
        ``peer_id``, wherever that peer's state lives.

        Workload generators drive event sources through this instead of
        holding direct alerter references: under the single-process runtime
        it is a plain method call; under the sharded runtime the call is
        shipped to the worker that owns the peer.  Returns ``False`` when the
        peer hosts no such alerter, ``None`` when the call was shipped
        asynchronously.
        """
        return self.runtime.drive(peer_id, function, method, args)

    # -- peer lifecycle (churn) --------------------------------------------------

    def fail_peer(self, peer_id: str, notify: bool | None = None) -> bool:
        """Simulate an abrupt peer failure.

        With ``notify=True`` (the oracle-mode default) the failure
        propagates synchronously through every layer: the DHT re-stabilises
        (its ring node fails abruptly; lost index keys are re-replicated
        onto the surviving nodes) and the recovery manager redeploys every
        subscription spanning the dead peer on surviving peers.

        With ``notify=False`` (the detector-mode default) the kill is
        *silent*: only the network learns about it, and the system must
        notice via heartbeat silence -- :meth:`tick` the system until the
        detector confirms the death and drives the same chain itself.

        Returns False when the peer was already down.
        """
        self.runtime.check_lifecycle("fail_peer")
        if peer_id not in self._peers:
            raise KeyError(f"unknown P2PM peer {peer_id!r}")
        if notify is None:
            notify = self.failure_mode == "oracle"
        if not self.network.fail_peer(peer_id, notify=notify):
            return False
        if notify:
            self.kadop.fail_peer(peer_id)
            self.recovery.handle_peer_failure(peer_id)
        return True

    def revive_peer(self, peer_id: str, notify: bool | None = None) -> bool:
        """Bring a failed peer back.

        With ``notify=True`` (oracle-mode default) the peer rejoins the DHT
        immediately and the recovery manager redeploys subscriptions whose
        pending sources included it.  With ``notify=False`` (detector-mode
        default) only the network revives it: the peer's heartbeat layer
        performs the rejoin handshake and reintegration happens when an
        observer hears it.  Returns False when the peer was not down.
        """
        self.runtime.check_lifecycle("revive_peer")
        if peer_id not in self._peers:
            raise KeyError(f"unknown P2PM peer {peer_id!r}")
        if notify is None:
            notify = self.failure_mode == "oracle"
        if not self.network.revive_peer(peer_id, notify=notify):
            return False
        if notify:
            self.kadop.join_peer(peer_id)
            self.recovery.handle_peer_revival(peer_id)
        return True

    def is_alive(self, peer_id: str) -> bool:
        """True when the peer exists and is not currently failed."""
        return peer_id in self._peers and self.network.is_alive(peer_id)

    def down_peers(self) -> frozenset[str]:
        """The currently failed peers (ground truth, from the network)."""
        return self.network.down_peers()

    def believed_down(self) -> frozenset[str]:
        """The peers the *system* believes are down.

        In detector mode this is the set of CONFIRMED peers -- which lags
        ground truth by the detection latency and may (rarely) include a
        live-but-partitioned peer.  Recovery and placement act on belief,
        not on the oracle.
        """
        if self.detector is not None:
            return self.detector.confirmed_peers()
        return self.network.down_peers()

    def suspected_peers(self) -> list[str]:
        """Peers currently under suspicion (empty in oracle mode)."""
        if self.detector is not None:
            return self.detector.suspected_peers()
        return []

    def avoid_peers(self) -> frozenset[str]:
        """Peers placement should avoid: believed down or under suspicion."""
        believed = self.believed_down()
        suspected = self.suspected_peers()
        if suspected:
            return believed | frozenset(suspected)
        return believed

    # -- detector-driven failure handling ---------------------------------------

    def tick(self) -> None:
        """One control round: heartbeats plus channel retransmissions.

        A no-op in oracle mode, so scenario loops can call it
        unconditionally without perturbing golden traces.  Delegated to the
        runtime so the sharded backend can fan the round out to its workers.
        """
        self.runtime.tick()

    def _local_tick(self) -> None:
        """The in-process part of :meth:`tick` (what runtimes actually run)."""
        if self.detector is not None:
            self.detector.tick()
        if self.reliable_channels:
            for peer in self._peers.values():
                if self.network.is_alive(peer.peer_id):
                    peer.net.channels.retransmit_tick()
        self.compile_stats.record_tick()

    # -- compiled execution ------------------------------------------------------

    def compiled_pipelines(self) -> list[CompiledPipeline]:
        """Every live compiled pipeline, ordered by peer id."""
        pipelines: list[CompiledPipeline] = []
        for peer_id in sorted(self._peers):
            for operator in self._peers[peer_id].operators:
                if isinstance(operator, CompiledPipeline):
                    pipelines.append(operator)
        return pipelines

    def compile_snapshot(self) -> dict:
        """Compiler counters for ``handle.stats()["compile"]``."""
        snapshot = self.compile_stats.snapshot()
        cse = self.materialized.snapshot()
        ticks = self.compile_stats.ticks
        cse["hits_per_tick"] = round(cse["hits"] / ticks, 2) if ticks else 0.0
        cse["misses_per_tick"] = round(cse["misses"] / ticks, 2) if ticks else 0.0
        snapshot["cse"] = cse
        snapshot["plan_cache"] = self.compile_cache.snapshot()
        snapshot["pipelines_active"] = sum(
            1 for pipeline in self.compiled_pipelines() if not pipeline.detached
        )
        return snapshot

    def compile_report(self) -> str:
        """Readable debug dump of the compiler state and live pipelines."""
        snapshot = self.compile_snapshot()
        lines = [
            f"segments fused: {snapshot['segments_fused']} "
            f"({snapshot['stages_fused']} stages)"
        ]
        cse = snapshot["cse"]
        lines.append(
            f"CSE table: {cse['signatures']} signatures, "
            f"{cse['hits']} hits / {cse['misses']} misses "
            f"(hit rate {cse['hit_rate']})"
        )
        cache = snapshot["plan_cache"]
        lines.append(
            f"plan cache: {cache['programs']} programs, "
            f"{cache['hits']} hits / {cache['misses']} misses"
        )
        invocations = snapshot["stage_invocations"]
        lines.append(
            f"stage invocations: {invocations['batch']} batch "
            f"({invocations['batch_items']} items) / {invocations['item']} per-item"
        )
        # fallback kinds and reasons arrive sorted from the snapshot
        for kind, reasons in snapshot["fallbacks"].items():
            for reason, count in reasons.items():
                lines.append(f"fallback {kind}: {reason} x{count}")
        for pipeline in self.compiled_pipelines():
            info = pipeline.describe()
            status = "detached" if info["detached"] else "live"
            lines.append(
                f"pipeline sub={info['sub_id']} @{info['peer']} [{status}] "
                f"in={info['items_in']} out={info['items_out']} "
                f"stages={' | '.join(info['stages'])}"
            )
        return "\n".join(lines)

    def _on_peer_confirmed_down(self, peer_id: str) -> None:
        """Detector confirmation: drive the same chain the oracle would."""
        self.kadop.fail_peer(peer_id)
        for peer in self._peers.values():
            peer.net.channels.handle_peer_death(peer_id)
        self.recovery.handle_peer_failure(peer_id)

    def _on_peer_rejoined(self, peer_id: str) -> None:
        """Detector rejoin handshake: reintegrate a confirmed-dead peer."""
        self.kadop.join_peer(peer_id)
        for peer in self._peers.values():
            peer.net.channels.handle_peer_rejoin(peer_id)
        self.recovery.handle_peer_revival(peer_id)


class P2PMPeer:
    """One peer of the monitoring system."""

    def __init__(
        self,
        peer_id: str,
        system: P2PMSystem,
        coordinates: tuple[float, float] | None = None,
    ) -> None:
        self.peer_id = peer_id
        self.system = system
        self.net = Peer(peer_id, system.network, coordinates)
        self.rpc = RpcEndpoint(self.net)
        register_control_methods(self)
        self.manager = SubscriptionManager(self)
        self.repository = AXMLRepository(peer_id)
        self.service_registry = ServiceRegistry()
        self.operators: list = []
        self.publishers: list = []
        self.dynamic_sources: list = []
        self._alerters: dict[str, Alerter] = {}
        self._alerter_hooks: list[AlerterHook] = []
        self._feed_sources: dict[str, Callable] = {}

    # -- subscriptions -----------------------------------------------------------------

    def subscribe(self, subscription, sub_id: str | None = None, **options):
        """Submit a subscription; this peer becomes its Subscription Manager.

        ``subscription`` is P2PML text, a parsed
        :class:`~repro.p2pml.ast.SubscriptionAST`, or a
        :class:`~repro.p2pml.builder.SubscriptionBuilder`.  Returns the
        :class:`~repro.monitor.handle.SubscriptionHandle` through which
        results are consumed and the lifecycle (``pause``/``resume``/
        ``cancel``) is driven.  Pass ``max_results=N`` to opt into a bounded
        result buffer readable via ``handle.results()``.
        """
        return self.manager.submit(subscription, sub_id=sub_id, **options)

    def subscribe_many(self, subscriptions, sub_ids=None, **options):
        """Submit a batch of subscriptions through one shared ingestion context.

        Equivalent to calling :meth:`subscribe` per entry (same handles in
        the same order), but discovery, reuse and deployment state are
        shared across the batch -- see
        :meth:`~repro.monitor.manager.SubscriptionManager.submit_many`.
        """
        return self.manager.submit_many(subscriptions, sub_ids=sub_ids, **options)

    # -- alerter hosting -----------------------------------------------------------------

    def add_alerter_hook(self, hook: AlerterHook) -> None:
        """Register a callback invoked whenever an alerter is created here.

        Workload simulators use this to attach newly created alerters to
        their event sources (e.g. the SOAP traffic generator).
        """
        self._alerter_hooks.append(hook)
        for alerter in self._alerters.values():
            hook(alerter)

    def register_feed(self, url: str, source: Callable) -> None:
        """Declare the snapshot source of an RSS feed / Web page served here."""
        self._feed_sources[url] = source

    def host_alerter(self, function: str, alerter: Alerter) -> Alerter:
        """Host a pre-built alerter under a P2PML function name."""
        self._alerters[function] = alerter
        for hook in self._alerter_hooks:
            hook(alerter)
        return alerter

    def alerter(self, function: str) -> Alerter | None:
        return self._alerters.get(function)

    def get_or_create_alerter(self, function: str) -> Alerter:
        """Return the alerter implementing ``function``, creating it if needed.

        Creation is delegated to the declarative alerter registry
        (:func:`repro.alerters.register_alerter`), so new alerter kinds plug
        in without touching this peer or the deployment layer.
        """
        existing = self._alerters.get(function)
        if existing is not None:
            return existing
        # create_alerter's error already names this peer and the registered kinds
        return self.host_alerter(function, create_alerter(self, function))

    @property
    def feed_sources(self) -> dict[str, Callable]:
        """Snapshot sources of the RSS feeds / Web pages served at this peer."""
        return dict(self._feed_sources)

    def single_feed_source(self, function: str):
        """The (url, source) pair of this peer's feed; alerter factories use it."""
        if not self._feed_sources:
            raise ValueError(
                f"peer {self.peer_id!r} has no registered feed for alerter {function!r}"
            )
        url = sorted(self._feed_sources)[0]
        return url, self._feed_sources[url]

    # -- channels --------------------------------------------------------------------------

    def ensure_channel(self, channel_id: str, stream: Stream) -> bool:
        """Publish ``stream`` as a channel unless already published.

        Returns True when this call actually published the channel, so the
        caller knows whether it owns the corresponding teardown.
        """
        if self.net.channels.publishes(channel_id):
            return False
        self.net.publish_channel(channel_id, stream)
        return True

    def __repr__(self) -> str:
        return (
            f"P2PMPeer({self.peer_id!r}, alerters={len(self._alerters)}, "
            f"operators={len(self.operators)})"
        )
