"""E1 -- the meteo QoS subscription end to end (Figure 1 / Figure 4).

The subscription of Figure 1 is compiled, optimised, placed and deployed
over a.com, b.com, meteo.com and the monitor peer; synthetic SOAP traffic
then flows through the distributed plan.  Checked, not timed: where the
plan's operators are placed, and the detected incidents against the
reference semantics computed directly from the generated calls.
"""

import pytest

from repro.algebra.plan import FILTER, JOIN, UNION
from repro.workloads import MeteoScenario

N_CALLS = 400


def test_meteo_deployment_shape():
    scenario = MeteoScenario(threshold=10.0, slow_fraction=0.15, seed=51)
    scenario.deploy()
    plan = scenario.task.plan
    # the Figure 4 shape: filters at the clients, union at a client, join at the server
    for node in plan.find_all(FILTER):
        assert node.placement in ("a.com", "b.com", "meteo.com")
    assert plan.find_all(UNION)[0].placement in ("a.com", "b.com")
    assert plan.find_all(JOIN)[0].placement == "meteo.com"


@pytest.mark.parametrize("slow_fraction", [0.05, 0.2])
def test_meteo_detects_every_slow_call(slow_fraction):
    scenario = MeteoScenario(threshold=10.0, slow_fraction=slow_fraction, seed=52)
    scenario.deploy()
    scenario.run_traffic(N_CALLS)
    assert len(scenario.incidents()) == len(scenario.expected_incidents(scenario.calls)) > 0
