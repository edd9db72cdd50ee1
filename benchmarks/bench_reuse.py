"""E7 -- stream reuse reduces deployed operators and network traffic (Section 5, Figure 7).

Claim: when overlapping subscriptions arrive, detecting that existing streams
(including joined streams) already compute parts of the new plan saves CPU
(fewer operators) and network traffic, at the cost of a few Stream Definition
Database queries per subscription.

Counted, not timed: ``operator_count`` and ``reuse_report.nodes_reused`` per
handle, ``network.stats.total_messages`` / ``total_bytes`` of the deployment
and of the traffic phase, with reuse against without.
"""

import pytest

from repro.workloads import MeteoScenario

SUBSCRIPTION_COUNTS = [2, 10, 25]
N_CALLS = 150


def run_overlapping(n_subscriptions: int, reuse: bool) -> dict[str, int]:
    scenario = MeteoScenario(threshold=10.0, slow_fraction=0.2, seed=41)
    tasks = [scenario.deploy(reuse=reuse)]
    for index in range(1, n_subscriptions):
        tasks.append(
            scenario.monitor.subscribe(
                scenario.subscription_text(),
                sub_id=f"meteo-qos-{index}",
                reuse=reuse,
                max_results=10_000,
            )
        )
    scenario.system.run()
    stats = scenario.system.network.stats
    deployment_messages = stats.total_messages
    stats.reset()
    scenario.run_traffic(N_CALLS)
    # every subscription keeps producing the same incidents
    (incidents,) = {len(task.results()) for task in tasks}
    return {
        "incidents": incidents,
        "operators": sum(task.operator_count for task in tasks),
        "nodes_reused": sum(task.reuse_report.nodes_reused for task in tasks if task.reuse_report),
        "deployment_messages": deployment_messages,
        "runtime_messages": stats.total_messages,
        "runtime_bytes": stats.total_bytes,
    }


@pytest.mark.parametrize("n_subscriptions", SUBSCRIPTION_COUNTS)
def test_reuse_saves_operators_and_traffic(n_subscriptions):
    shared = run_overlapping(n_subscriptions, reuse=True)
    separate = run_overlapping(n_subscriptions, reuse=False)
    assert shared["incidents"] == separate["incidents"] > 0
    assert shared["nodes_reused"] > 0 == separate["nodes_reused"]
    for counter in ("operators", "deployment_messages", "runtime_messages", "runtime_bytes"):
        assert shared[counter] < separate[counter], counter
