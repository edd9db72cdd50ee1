"""Named chaos scenarios: the reproducible one-liners CI sweeps nightly.

Each entry is a factory taking a seed, so the soak matrix (scenarios x
seeds) is just two nested loops.  Add a scenario here and the nightly
``chaos-soak`` workflow picks it up automatically (it asks
``run_scenario.py --list``).
"""

from __future__ import annotations

from typing import Callable

from repro.net.faults import FaultModel
from repro.net.supervisor import SupervisorConfig
from repro.scenarios.chaos import ChaosScenario, ChurnSpec, ScenarioAction

ScenarioFactory = Callable[[int], ChaosScenario]


def _worker_shard_assigner(peer_id: str, shards: int) -> int | None:
    """Pin the monitor to shard 0 and spread sources over the other shards.

    Worker-fault scenarios need a topology where killing one worker takes
    down *some* sources but never the monitor (whose shard holds the
    subscription manager and the result delivery), for every seed alike.
    """
    if peer_id == "monitor":
        return 0
    if peer_id.startswith("s") and peer_id[1:].isdigit():
        return 1 + int(peer_id[1:]) % (shards - 1)
    return None


def _partition_heal(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="partition-heal",
        seed=seed,
        n_sources=3,
        ticks=24,
        schedule=(
            ScenarioAction(
                6,
                "partition",
                {"name": "split", "groups": [["@monitor"], ["@sources"]]},
            ),
            ScenarioAction(14, "heal", "split"),
        ),
        invariants=("exactly-once", "no-duplicates"),
        description=(
            "The monitor is cut off from every source for 8 ticks; held "
            "messages must all arrive exactly once after the heal."
        ),
    )


def _churn_failover(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="churn-failover",
        seed=seed,
        n_sources=3,
        ticks=26,
        schedule=(
            ScenarioAction(
                4,
                "partition",
                {"name": "split", "groups": [["@monitor"], ["@sources"]]},
            ),
            ScenarioAction(9, "heal", "split"),
            ScenarioAction(13, "fail", "@union-host"),
            ScenarioAction(20, "revive", "@union-host"),
        ),
        invariants=("exactly-once", "no-duplicates", "recovers"),
        description=(
            "A partition heals, then the peer hosting the plan's union "
            "operator fails: the subscription must reach RECOVERING, "
            "redeploy on the surviving sources, keep delivering, and regain "
            "full coverage when the peer revives -- with no duplicate and "
            "no lost alerts."
        ),
    )


def _flaky_network(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="flaky-network",
        seed=seed,
        n_sources=4,
        ticks=30,
        schedule=(
            ScenarioAction(
                2,
                "faults",
                FaultModel(
                    duplication_rate=0.3, jitter=0.05, bandwidth=50_000.0
                ),
            ),
        ),
        invariants=("exactly-once", "no-duplicates"),
        description=(
            "Heavy duplication, reordering jitter and finite bandwidth from "
            "tick 2 on: the channel layer's sequence-number dedup must keep "
            "delivery exactly-once."
        ),
    )


def _lossy_network(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="lossy-network",
        seed=seed,
        n_sources=4,
        ticks=30,
        schedule=(
            ScenarioAction(2, "faults", FaultModel(loss_rate=0.1, jitter=0.02)),
            ScenarioAction(26, "clear-faults"),
        ),
        invariants=("no-duplicates", "drain-delivered"),
        description=(
            "10% message loss: alerts may vanish (no retransmission below "
            "the channel layer) but never duplicate, and delivery is intact "
            "again once the loss stops."
        ),
    )


def _churn_soak(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="churn-soak",
        seed=seed,
        n_sources=5,
        ticks=40,
        drain_ticks=5,
        churn=ChurnSpec(fail_rate=0.25, revive_rate=0.4, max_down=2),
        invariants=("no-duplicates", "recovers", "drain-delivered"),
        description=(
            "Seeded random churn fails and revives sources for 40 ticks; "
            "the subscription must keep recovering and deliver everything "
            "emitted once the network settles."
        ),
    )


def _silent_kill(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="silent-kill",
        seed=seed,
        n_sources=4,
        ticks=26,
        schedule=(
            ScenarioAction(8, "fail", "@union-host"),
            ScenarioAction(18, "revive", "@union-host"),
        ),
        invariants=(
            "exactly-once",
            "no-duplicates",
            "recovers",
            "detects-within:4",
            "recovers-within:4",
        ),
        description=(
            "The union-hosting peer is killed *silently* (no lifecycle "
            "notification): the heartbeat detector must confirm the death "
            "within its latency bound, drive redeployment on survivors, and "
            "reintegrate the peer through the rejoin handshake when it "
            "silently returns -- no lost and no duplicate alerts."
        ),
    )


def _lossy_control_plane(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="lossy-control-plane",
        seed=seed,
        n_sources=4,
        ticks=24,
        reliable_control=True,
        apply_faults_before_subscribe=True,
        fault_model=FaultModel(loss_rate=0.1, jitter=0.02),
        schedule=(ScenarioAction(20, "clear-faults"),),
        invariants=("no-duplicates", "drain-delivered"),
        description=(
            "10% message loss from before the subscription is even "
            "submitted: deployment control (index publications, channel "
            "subscribes, placement prepare) rides the retrying RPC layer, "
            "so the subscription either deploys fully and keeps delivering "
            "or fails with a typed error -- never a silent partial "
            "deployment."
        ),
    )


def _worker_crash(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="worker-crash",
        seed=seed,
        n_sources=4,
        ticks=16,
        runtime="sharded",
        shards=3,
        failure_mode="oracle",
        shard_assigner=_worker_shard_assigner,
        schedule=(ScenarioAction(8, "worker-kill", "@owner-of:s0"),),
        invariants=(
            "no-duplicates",
            "survivor-exactly-once",
            "recovers-within:1",
            "worker-failover",
        ),
        description=(
            "The worker process owning source s0 is SIGKILLed mid-run (a "
            "real crash, no cleanup): the supervisor must classify the loss, "
            "fail over every peer the shard owned within one tick, and keep "
            "the survivors' alerts flowing exactly-once with no duplicate "
            "ever -- and the run must terminate (no hang) with the failover "
            "counters on record."
        ),
    )


def _worker_hang(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="worker-hang",
        seed=seed,
        n_sources=4,
        ticks=14,
        runtime="sharded",
        shards=3,
        failure_mode="oracle",
        shard_assigner=_worker_shard_assigner,
        supervisor_config=SupervisorConfig(turn_timeout=2.0, poll_interval=0.02),
        schedule=(ScenarioAction(7, "worker-hang", "@owner-of:s0"),),
        invariants=(
            "no-duplicates",
            "survivor-exactly-once",
            "recovers-within:1",
            "worker-failover",
        ),
        description=(
            "The worker owning source s0 wedges in an uninterruptible sleep: "
            "only the supervisor's turn deadline can notice.  The straggler "
            "must be killed and failed over like a crash -- the epoch "
            "protocol may stall for at most the configured turn timeout, "
            "never forever."
        ),
    )


SCENARIOS: dict[str, ScenarioFactory] = {
    "partition-heal": _partition_heal,
    "churn-failover": _churn_failover,
    "flaky-network": _flaky_network,
    "lossy-network": _lossy_network,
    "churn-soak": _churn_soak,
    "silent-kill": _silent_kill,
    "lossy-control-plane": _lossy_control_plane,
    "worker-crash": _worker_crash,
    "worker-hang": _worker_hang,
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


#: Scenarios the sharded runtime can execute: no peer churn (fail/revive
#: raise once the shard workers fork) and no reliable control plane.
SHARDABLE_SCENARIOS = ("partition-heal", "flaky-network", "lossy-network")


def make_scenario(
    name: str,
    seed: int = 0,
    failure_mode: str | None = None,
    runtime: str | None = None,
    shards: int | None = None,
) -> ChaosScenario:
    """Instantiate a named scenario for the given seed.

    ``failure_mode`` overrides the scenario's default (``detector``):
    golden-trace tests pin ``oracle`` to keep the legacy byte-identical
    traces, and A/B comparisons run the same scenario in both modes.
    ``runtime="sharded"`` partitions the peers across ``shards`` worker
    processes -- only scenarios in :data:`SHARDABLE_SCENARIOS` qualify (no
    peer churn), and the failure mode is forced to ``oracle`` (the sharded
    v1 restriction).  ``shards=None`` keeps the scenario's own count: 2, or
    3 for the worker-fault scenarios.
    """
    try:
        factory = SCENARIOS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown scenario {name!r} (known: {', '.join(scenario_names())})"
        ) from exc
    scenario = factory(seed)
    if failure_mode is not None and scenario.runtime != "sharded":
        scenario.failure_mode = failure_mode
    if scenario.runtime == "sharded":
        # inherently sharded (worker-fault) scenarios: the fault *is* a
        # worker process, so there is no single-process variant to fall
        # back to -- only the shard count can be overridden
        if runtime == "single":
            raise ValueError(
                f"scenario {name!r} injects worker faults and only runs "
                "sharded"
            )
    elif runtime is not None and runtime != "single":
        if name not in SHARDABLE_SCENARIOS:
            raise ValueError(
                f"scenario {name!r} cannot run sharded (peer churn or a "
                f"reliable control plane); shardable: {', '.join(SHARDABLE_SCENARIOS)}"
            )
        scenario.runtime = runtime
        scenario.failure_mode = "oracle"
        scenario.reliable_control = False
    if shards is not None:
        scenario.shards = shards
    return scenario
