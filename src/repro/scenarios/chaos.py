"""The chaos-scenario engine: build, disrupt, drain, check.

A scenario deploys one chaos-feed subscription over ``n_sources`` source
peers plus a monitor peer, then advances in *ticks*.  Every tick:

1. the fault schedule's actions for this tick are applied (peer failures
   and revivals, partitions and heals, fault-model swaps, seeded churn);
2. the control plane settles (pending messages are delivered -- unless a
   partition holds them);
3. every alive source emits one uniquely numbered alert;
4. the network drains again.

After the last tick the scenario *heals*: every partition is lifted, every
failed peer revived, the fault model cleared, and a few drain ticks run so
"eventually delivered" invariants are checkable.  The whole run is
deterministic -- same seed, same schedule => byte-identical event trace.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.algebra.plan import UNION
from repro.monitor.p2pm_peer import P2PMSystem
from repro.net.faults import FaultModel
from repro.scenarios.invariants import InvariantResult, check as check_invariant
from repro.workloads.chaos_feed import CHAOS_FUNCTION, ChaosFeedWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.handle import SubscriptionHandle
    from repro.monitor.recovery import RecoveryEvent


@dataclass(frozen=True)
class ScenarioAction:
    """One scheduled disruption.

    ``action`` is one of ``fail``, ``revive``, ``partition``, ``heal``,
    ``faults``, ``clear-faults`` or (sharded runs only) ``worker-kill``,
    ``worker-hang``, ``worker-corrupt``.  Peer targets may use the symbolic
    names ``@monitor``, ``@union-host`` (the peer hosting the plan's union
    operator at that moment) or a concrete peer id; partition targets are
    ``{"name": ..., "groups": [[...], [...]]}`` where groups may contain
    ``@monitor`` / ``@sources`` / peer ids.  Worker-fault targets are a
    shard index or ``"@owner-of:<peer>"`` (the shard owning that peer); the
    fault is armed and fires at the start of the tick's settle run, before
    this tick's alerts are emitted.
    """

    tick: int
    action: str
    target: object = None


@dataclass(frozen=True)
class ChurnSpec:
    """Seeded random churn over the source peers.

    Each tick draws (from the scenario's churn RNG, independent of topology
    and fault RNGs) whether to revive a down source and whether to fail an
    alive one; at most ``max_down`` sources are down simultaneously and at
    least one source always survives.
    """

    fail_rate: float = 0.15
    revive_rate: float = 0.4
    max_down: int = 1


@dataclass
class ScenarioResult:
    """Everything a finished run exposes to invariants, tests and the CLI."""

    name: str
    seed: int
    ticks: int
    drain_start: int
    emitted: list[tuple[str, int]]
    received: list[tuple[str, int]]
    final_status: str
    recovery_events: list["RecoveryEvent"]
    disruptions: list[tuple[int, str, str]]
    event_log: tuple[str, ...]
    network_counters: dict[str, int]
    #: how the run noticed failures: ``detector`` (heartbeats) or ``oracle``
    failure_mode: str = "detector"
    #: (scenario tick, peer) failure-detector confirmations, in order
    detections: list[tuple[int, str]] = field(default_factory=list)
    #: (scenario tick, peer) detector rejoin handshakes, in order
    rejoins: list[tuple[int, str]] = field(default_factory=list)
    #: (scenario tick, trigger, peer, outcome) recovery events, in order
    recovery_timeline: list[tuple[int, str, str, str]] = field(default_factory=list)
    reliability_counters: dict[str, int] = field(default_factory=dict)
    #: (epoch, kind, shard) worker faults actually injected (sharded runs)
    worker_faults: list[tuple[int, str, int]] = field(default_factory=list)
    invariants: list[InvariantResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.invariants)

    @property
    def fingerprint(self) -> str:
        """SHA-256 over the event trace and the delivered sequence.

        Two runs of the same scenario with the same seed must produce the
        same fingerprint -- the golden-trace determinism guarantee.
        """
        payload = "\n".join(self.event_log)
        payload += "||" + repr(self.received) + "||" + self.final_status
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def summary(self) -> dict[str, object]:
        return {
            "scenario": self.name,
            "seed": self.seed,
            "ticks": self.ticks,
            "emitted": len(self.emitted),
            "received": len(self.received),
            "duplicates": len(self.received) - len(set(self.received)),
            "final_status": self.final_status,
            "recovery_events": [
                {
                    "trigger": event.trigger,
                    "peer": event.peer_id,
                    "outcome": event.outcome,
                    "pending": list(event.pending_sources),
                }
                for event in self.recovery_events
            ],
            "disruptions": [list(entry) for entry in self.disruptions],
            "failure_mode": self.failure_mode,
            "detections": [list(entry) for entry in self.detections],
            "rejoins": [list(entry) for entry in self.rejoins],
            "recovery_timeline": [list(entry) for entry in self.recovery_timeline],
            "network": dict(self.network_counters),
            "reliability": dict(self.reliability_counters),
            "worker_faults": [list(entry) for entry in self.worker_faults],
            "fingerprint": self.fingerprint,
            "invariants": [
                {"name": inv.name, "ok": inv.ok, "detail": inv.detail}
                for inv in self.invariants
            ],
            "ok": self.ok,
        }


@dataclass
class ChaosScenario:
    """A reproducible chaos run: topology + workload + schedule + invariants."""

    name: str
    seed: int = 0
    n_sources: int = 3
    ticks: int = 20
    drain_ticks: int = 4
    schedule: tuple[ScenarioAction, ...] = ()
    fault_model: FaultModel | None = None
    churn: ChurnSpec | None = None
    invariants: tuple[str, ...] = ("no-duplicates",)
    description: str = ""
    #: how the system notices failures.  ``detector`` (the default) makes
    #: every fail/revive *silent* -- the system only has its heartbeats;
    #: ``oracle`` restores the legacy synchronous lifecycle notifications
    failure_mode: str = "detector"
    #: route Stream Definition DB + deployment control over retrying RPC
    reliable_control: bool = False
    #: install the fault model before the subscription is submitted, so the
    #: control plane itself runs over the faulty network
    apply_faults_before_subscribe: bool = False
    #: "single" (default) or "sharded" (peer set partitioned across worker
    #: processes).  Sharded runs require ``failure_mode="oracle"`` and a
    #: schedule without peer churn; equivalence is stated over the received
    #: multiset, not the event-log fingerprint (per-shard logs interleave).
    runtime: str = "single"
    shards: int = 2
    #: optional ``(peer_id, shards) -> shard | None`` placement override for
    #: sharded runs; worker-fault scenarios pin the topology so the same
    #: shard owns the same peers for every seed
    shard_assigner: object = None
    #: optional :class:`~repro.net.supervisor.SupervisorConfig`; worker-hang
    #: scenarios tighten ``turn_timeout`` so the run stays fast
    supervisor_config: object = None

    # -- execution ---------------------------------------------------------------

    def run(self) -> ScenarioResult:
        system = P2PMSystem(
            seed=self.seed,
            failure_mode=self.failure_mode,
            reliable_control=self.reliable_control,
            runtime=self.runtime,
            shards=self.shards,
            shard_assigner=self.shard_assigner,
            supervisor_config=self.supervisor_config,
        )
        sources = [f"s{i}" for i in range(self.n_sources)]
        for source in sources:
            system.add_peer(source)
        monitor = system.add_peer("monitor")
        system.network.record_events = True

        if self.apply_faults_before_subscribe and self.fault_model is not None:
            system.set_fault_model(self.fault_model)
        handle = monitor.subscribe(
            self._subscription_text(sources), sub_id=f"{self.name}-sub"
        )
        system.run()
        if self.fault_model is not None and not self.apply_faults_before_subscribe:
            system.set_fault_model(self.fault_model)

        received: list[tuple[str, int]] = []

        def collect(item) -> None:
            received.append((item.find("src").text, int(item.find("n").text)))

        handle.on_result(collect)
        # hand execution to the runtime backend (a no-op for "single"; forks
        # the shard workers for "sharded" -- callbacks are attached above so
        # the workers know this subscription's items must ship back)
        system.start_runtime()

        workload = ChaosFeedWorkload(sources)
        churn_rng = random.Random(f"{self.seed}:churn")
        disruptions: list[tuple[int, str, str]] = []
        detections: list[tuple[int, str]] = []
        rejoins: list[tuple[int, str]] = []
        recovery_timeline: list[tuple[int, str, str, str]] = []
        timeline_marks = [0, 0, 0, 0]

        def drain_timelines(tick: int) -> None:
            """Attribute new detector/recovery entries to scenario ``tick``."""
            detector = system.detector
            if detector is not None:
                for _, peer_id in detector.confirmations[timeline_marks[0]:]:
                    detections.append((tick, peer_id))
                timeline_marks[0] = len(detector.confirmations)
                for _, peer_id in detector.rejoins[timeline_marks[1]:]:
                    rejoins.append((tick, peer_id))
                timeline_marks[1] = len(detector.rejoins)
            for event in system.recovery.events[timeline_marks[2]:]:
                recovery_timeline.append(
                    (tick, event.trigger, event.peer_id, event.outcome)
                )
            timeline_marks[2] = len(system.recovery.events)
            # peers the sharded runtime failed over after losing their worker
            # become synthetic ``fail`` disruptions, so window-based
            # invariants (``recovers-within``) see worker crashes exactly
            # like scheduled peer failures
            failed_over = getattr(system.runtime, "failed_over_peers", None)
            if failed_over is not None:
                for peer_id in failed_over[timeline_marks[3]:]:
                    disruptions.append((tick, "fail", peer_id))
                timeline_marks[3] = len(failed_over)

        for tick in range(self.ticks):
            for action in self.schedule:
                if action.tick == tick:
                    self._apply(system, handle, sources, action, tick, disruptions)
            if self.churn is not None:
                self._churn_step(system, sources, churn_rng, tick, disruptions)
            system.tick()  # heartbeats + channel retransmissions (detector mode)
            system.run()  # settle the control plane before emitting
            workload.tick(system, tick)
            system.run()
            drain_timelines(tick)

        # drain: lift every fault, then keep emitting so "eventually
        # delivered" invariants have something to check
        drain_start = self.ticks
        system.set_fault_model(None)
        for partition_name in list(system.network.active_partitions):
            system.heal(partition_name)
        for peer_id in sorted(system.down_peers()):
            try:
                system.revive_peer(peer_id)
            except RuntimeError:
                # sharded runs freeze the peer lifecycle after start: peers
                # failed over because their worker died stay down (their
                # process is gone), so the heal phase checks survivors only
                continue
        system.run()
        for tick in range(self.ticks, self.ticks + self.drain_ticks):
            # detector-mode revivals reintegrate through the rejoin
            # handshake, which needs detector rounds to be heard
            system.tick()
            system.run()
            workload.tick(system, tick)
            system.run()
            drain_timelines(tick)
        system.run()
        system.shutdown()

        result = ScenarioResult(
            name=self.name,
            seed=self.seed,
            ticks=self.ticks,
            drain_start=drain_start,
            emitted=list(workload.emitted),
            received=received,
            final_status=handle.status,
            recovery_events=list(system.recovery.events),
            disruptions=disruptions,
            event_log=tuple(system.network.event_log),
            network_counters={
                "messages": system.network.stats.total_messages,
                "lost": system.network.messages_lost,
                "duplicated": system.network.messages_duplicated,
                "held": system.network.messages_held,
                "dropped_peer_down": system.network.messages_dropped_peer_down,
            },
            failure_mode=self.failure_mode,
            detections=detections,
            rejoins=rejoins,
            recovery_timeline=recovery_timeline,
            reliability_counters=system.network.stats.reliability_snapshot(),
            worker_faults=(
                list(system.runtime.fault_injector.injected)
                if getattr(system.runtime, "fault_injector", None) is not None
                else []
            ),
        )
        result.invariants = [
            check_invariant(name, result) for name in self.invariants
        ]
        return result

    # -- internals ---------------------------------------------------------------

    def _subscription_text(self, sources: list[str]) -> str:
        peers = " ".join(f"<p>{source}</p>" for source in sources)
        return (
            f"for $x in {CHAOS_FUNCTION}({peers}) "
            'where $x.kind = "chaos" '
            "return <seen><src>{$x.source}</src><n>{$x.n}</n></seen>"
        )

    def _apply(
        self,
        system: P2PMSystem,
        handle: "SubscriptionHandle",
        sources: list[str],
        action: ScenarioAction,
        tick: int,
        disruptions: list[tuple[int, str, str]],
    ) -> None:
        if action.action == "fail":
            peer_id = self._resolve_peer(action.target, handle, sources)
            if system.is_alive(peer_id):
                system.fail_peer(peer_id)
                disruptions.append((tick, "fail", peer_id))
        elif action.action == "revive":
            peer_id = self._resolve_peer(action.target, handle, sources)
            if not system.network.is_alive(peer_id):
                system.revive_peer(peer_id)
                disruptions.append((tick, "revive", peer_id))
        elif action.action == "partition":
            assert isinstance(action.target, dict)
            name = str(action.target["name"])
            groups = [
                self._resolve_group(group, sources)
                for group in action.target["groups"]
            ]
            system.partition(name, *groups)
            disruptions.append((tick, "partition", name))
        elif action.action == "heal":
            system.heal(str(action.target))
            disruptions.append((tick, "heal", str(action.target)))
        elif action.action == "faults":
            assert isinstance(action.target, FaultModel)
            system.set_fault_model(action.target)
            disruptions.append((tick, "faults", repr(action.target)))
        elif action.action == "clear-faults":
            system.set_fault_model(None)
            disruptions.append((tick, "clear-faults", ""))
        elif action.action in ("worker-kill", "worker-hang", "worker-corrupt"):
            kind = action.action.removeprefix("worker-")
            shard = self._resolve_shard(system, action.target)
            system.runtime.inject_worker_fault(kind, shard)
            disruptions.append((tick, action.action, f"shard:{shard}"))
        else:
            raise ValueError(f"unknown scenario action {action.action!r}")

    def _resolve_shard(self, system: P2PMSystem, target: object) -> int:
        """Resolve a worker-fault target to a shard index.

        Accepts a shard index directly, or ``"@owner-of:<peer>"`` naming the
        shard that owns a peer -- scenarios usually care about *whose*
        pipelines die, not about shard numbering.
        """
        runtime = system.runtime
        if not hasattr(runtime, "inject_worker_fault"):
            raise ValueError(
                "worker-fault actions need runtime='sharded' "
                f"(got {self.runtime!r})"
            )
        if isinstance(target, str) and target.startswith("@owner-of:"):
            return runtime.shard_for(target.removeprefix("@owner-of:"))
        return int(target)  # type: ignore[call-overload]

    def _resolve_peer(
        self, target: object, handle: "SubscriptionHandle", sources: list[str]
    ) -> str:
        if target == "@monitor":
            return "monitor"
        if target == "@union-host":
            plan = handle.plan
            if plan is not None:
                unions = plan.find_all(UNION)
                if unions and unions[0].placement:
                    return str(unions[0].placement)
            return sources[0]
        return str(target)

    def _resolve_group(self, group: list[str], sources: list[str]) -> list[str]:
        peers: list[str] = []
        for entry in group:
            if entry == "@monitor":
                peers.append("monitor")
            elif entry == "@sources":
                peers.extend(sources)
            else:
                peers.append(entry)
        return peers

    def _churn_step(
        self,
        system: P2PMSystem,
        sources: list[str],
        rng: random.Random,
        tick: int,
        disruptions: list[tuple[int, str, str]],
    ) -> None:
        assert self.churn is not None
        down = [source for source in sources if not system.network.is_alive(source)]
        if down and rng.random() < self.churn.revive_rate:
            peer_id = rng.choice(down)
            system.revive_peer(peer_id)
            disruptions.append((tick, "revive", peer_id))
        alive = [source for source in sources if system.network.is_alive(source)]
        down_count = len(sources) - len(alive)
        if (
            down_count < self.churn.max_down
            and len(alive) > 1
            and rng.random() < self.churn.fail_rate
        ):
            peer_id = rng.choice(alive)
            system.fail_peer(peer_id)
            disruptions.append((tick, "fail", peer_id))
