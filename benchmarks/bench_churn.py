"""CHURN -- a subscription survives repeated failure of its union host (Section 3.1).

Claim: the P2P network is volatile, peers fail without notice, and monitoring
goes on.  For several source counts, one chaos-feed subscription spanning all
sources is deployed; the peer currently hosting the plan's union operator is
then failed and revived ten times over, once with the failure oracle and once
with heartbeat failure detection.

Counted in simulator ticks, never in milliseconds:

* ``duplicates`` -- deliveries of an alert already delivered (must be 0);
* ``delivery_gap_ticks`` -- ticks with no delivery from surviving sources
  after a failure: 0 in oracle mode (``fail_peer`` redeploys synchronously),
  at most 2 past the confirmation in detector mode;
* ``detection_latency_ticks`` -- in detector mode, ticks from the (silent)
  kill until the heartbeat detector confirms the death: at most
  ``DetectorConfig().confirm_after``.
"""

import pytest

from repro.algebra.plan import UNION
from repro.monitor import P2PMSystem
from repro.net.detector import DetectorConfig
from repro.workloads import ChaosFeedWorkload
from repro.workloads.chaos_feed import CHAOS_FUNCTION

SOURCE_COUNTS = [3, 8, 16]
CHURN_EVENTS = 10
#: delivery must resume this many ticks after the failure is known
RESUME_WITHIN = 2


def _union_host(handle) -> str:
    unions = handle.plan.find_all(UNION)
    assert unions and unions[0].placement
    return str(unions[0].placement)


def churn(n_sources: int, failure_mode: str) -> dict:
    """``CHURN_EVENTS`` fail/revive cycles of the union-hosting peer; the counters above."""
    system = P2PMSystem(seed=0, failure_mode=failure_mode)
    sources = [f"s{i}" for i in range(n_sources)]
    for source in sources:
        system.add_peer(source)
    monitor = system.add_peer("monitor")
    peers = " ".join(f"<p>{source}</p>" for source in sources)
    handle = monitor.subscribe(
        f'for $x in {CHAOS_FUNCTION}({peers}) where $x.kind = "chaos" '
        "return <seen><src>{$x.source}</src><n>{$x.n}</n></seen>",
        sub_id="churn-bench",
    )
    system.run()

    received: list[tuple[str, int]] = []
    handle.on_result(
        lambda item: received.append((item.find("src").text, int(item.find("n").text)))
    )
    workload = ChaosFeedWorkload(sources)
    delivery_gaps: list[int] = []
    detection_latencies: list[int] = []
    detector = system.detector
    tick = 0
    probe_budget = DetectorConfig().confirm_after + RESUME_WITHIN + 1

    def run_ticks(count: int) -> None:
        nonlocal tick
        for _ in range(count):
            system.tick()  # heartbeats + retransmissions (no-op on oracle)
            system.run()
            workload.tick(system, tick)
            system.run()
            tick += 1

    run_ticks(3)  # warm-up traffic
    for _ in range(CHURN_EVENTS):
        victim = _union_host(handle)
        killed_at = detector.tick_count if detector is not None else 0
        system.fail_peer(victim)  # silent in detector mode
        system.run()

        # how many ticks pass before surviving sources deliver again?
        fail_tick = tick
        gap = probe_budget
        for probe in range(probe_budget):
            run_ticks(1)
            if any(n >= fail_tick for _, n in received):
                gap = probe
                break
        delivery_gaps.append(gap)
        if detector is not None:
            confirmed_at = max(t for t, peer in detector.confirmations if peer == victim)
            detection_latencies.append(confirmed_at - killed_at)

        system.revive_peer(victim)  # silent in detector mode: rejoin handshake
        system.run()
        run_ticks(3)

    return {
        "alerts_delivered": len(received),
        "duplicates": len(received) - len(set(received)),
        "delivery_gap_ticks_max": max(delivery_gaps),
        "detection_latency_ticks_max": max(detection_latencies, default=0),
        "recoveries": system.recovery.recoveries,
        "final_status": handle.status,
    }


@pytest.mark.parametrize("failure_mode", ["oracle", "detector"])
@pytest.mark.parametrize("n_sources", SOURCE_COUNTS)
def test_subscription_survives_churn_of_its_union_host(n_sources, failure_mode):
    row = churn(n_sources, failure_mode)
    assert row["alerts_delivered"] > 0 and row["duplicates"] == 0
    assert row["final_status"] == "deployed"
    assert row["recoveries"] == 2 * CHURN_EVENTS  # one per failure, one per revival
    if failure_mode == "oracle":
        assert row["detection_latency_ticks_max"] == 0
        assert row["delivery_gap_ticks_max"] == 0
    else:
        confirm_after = DetectorConfig().confirm_after
        assert 0 < row["detection_latency_ticks_max"] <= confirm_after
        # the gap counts whole silent ticks from the kill: confirmation falls
        # in tick `confirm_after`, delivery resumes at most RESUME_WITHIN later
        assert row["delivery_gap_ticks_max"] < confirm_after + RESUME_WITHIN
