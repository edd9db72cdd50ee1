"""E5 -- selection push-down saves communication (Sections 3.3-3.4, Figure 4).

Claim: placing filters next to the alerters ("the selections were pushed as
much as possible to the proximity of the sources to save on communications")
transfers far fewer bytes between peers than shipping every alert to the
join/monitor peer and filtering there.

Counted, not timed: ``network.stats.total_bytes`` and ``total_messages`` of
the traffic phase, pushed plan against central plan, same calls.
"""

import pytest

from repro.workloads import MeteoScenario

N_CALLS = 300
SLOW_FRACTIONS = [0.05, 0.1, 0.3]


def run_scenario(push_selections: bool, slow_fraction: float):
    scenario = MeteoScenario(threshold=10.0, slow_fraction=slow_fraction, seed=31)
    scenario.deploy(push_selections=push_selections, reuse=False)
    scenario.system.network.stats.reset()  # measure traffic, not deployment
    scenario.run_traffic(N_CALLS)
    assert len(scenario.incidents()) == len(scenario.expected_incidents(scenario.calls)) > 0
    return scenario.system.network.stats


@pytest.mark.parametrize("slow_fraction", SLOW_FRACTIONS)
def test_pushdown_reduces_bytes_and_messages(slow_fraction):
    pushed = run_scenario(True, slow_fraction)
    central = run_scenario(False, slow_fraction)
    assert pushed.total_bytes < central.total_bytes
    assert pushed.total_messages < central.total_messages
