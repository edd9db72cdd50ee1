"""Named chaos scenarios: the reproducible one-liners CI sweeps nightly.

Each entry is a factory taking a seed, so the soak matrix (scenarios x
seeds) is just two nested loops.  Add a scenario here and the nightly
``chaos-soak`` workflow picks it up automatically (it asks
``run_scenario.py --list``).
"""

from __future__ import annotations

from typing import Callable

from repro.net.faults import FaultModel
from repro.scenarios.chaos import ChaosScenario, ChurnSpec, ScenarioAction

ScenarioFactory = Callable[[int], ChaosScenario]


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


SCENARIOS: dict[str, ScenarioFactory] = {
    "partition-heal": _partition_heal,
    "churn-failover": _churn_failover,
    "flaky-network": _flaky_network,
    "lossy-network": _lossy_network,
    "churn-soak": _churn_soak,
    "silent-kill": _silent_kill,
    "lossy-control-plane": _lossy_control_plane,
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def make_scenario(name: str, seed: int = 0, failure_mode: str | None = None) -> ChaosScenario:
    """Instantiate a named scenario for the given seed.

    ``failure_mode`` overrides the scenario's default (``detector``):
    golden-trace tests pin ``oracle`` to keep the legacy byte-identical
    traces, and A/B comparisons run the same scenario in both modes.
    """
    try:
        factory = SCENARIOS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown scenario {name!r} (known: {', '.join(scenario_names())})"
        ) from exc
    scenario = factory(seed)
    if failure_mode is not None:
        scenario.failure_mode = failure_mode
    return scenario
