"""End-to-end test of membership-driven monitoring (Section 2's areRegistered)."""

from repro.monitor import P2PMSystem
from repro.workloads import SoapTrafficGenerator


def test_dynamic_alerter_follows_joins_and_leaves():
    system = P2PMSystem(seed=5)
    servers = [system.add_peer(f"server{i}.example") for i in range(3)]
    monitor = system.add_peer("monitor.example")

    traffic = SoapTrafficGenerator(
        clients=["client.example"],
        servers=[peer.peer_id for peer in servers],
        methods=["Get"],
        seed=5,
    )
    system.add_peer("client.example")
    for peer in servers:
        peer.add_alerter_hook(
            lambda alerter: traffic.attach_alerter(alerter)
            if hasattr(alerter, "observe_call")
            else None
        )

    task = monitor.subscribe(
        """
        for $j in areRegistered(<p>monitor.example</p>),
            $c in inCOM($j)
        where $c.callMethod = "Get"
        return <seen callee="{$c.callee}"/>
        """,
        sub_id="dynamic-watch",
        max_results=1024,
    )
    system.run()

    # no server is registered in the monitored DHT yet: nothing is observed
    traffic.run(30)
    system.run()
    assert task.results() == []

    # server0 registers: only its calls are observed from now on
    system.kadop.join_peer("server0.example")
    system.run()
    traffic.run(60)
    system.run()
    observed = {item.attrib["callee"] for item in task.results()}
    assert observed == {"server0.example"}
    count_after_first_phase = len(task.results())
    assert count_after_first_phase > 0

    # server1 registers too
    system.kadop.join_peer("server1.example")
    system.run()
    traffic.run(60)
    system.run()
    observed = {item.attrib["callee"] for item in task.results()}
    assert observed == {"server0.example", "server1.example"}

    # server0 leaves: its calls stop being reported
    system.kadop.leave_peer("server0.example")
    system.run()
    before = len(task.results())
    only_server0 = SoapTrafficGenerator(
        clients=["client.example"], servers=["server0.example"], methods=["Get"], seed=9
    )
    alerter = system.peer("server0.example").alerter("inCOM")
    only_server0.attach_alerter(alerter)
    only_server0.run(40)
    system.run()
    assert len(task.results()) == before


def test_a_static_subscription_never_reuses_a_membership_driven_source():
    """``inCOM($j)`` reads other peers' alerters, so its output is not the
    output of ``inCOM(<p>monitor.example</p>)``, although both are described
    by an ``inCOM`` operator at the monitor."""
    system = P2PMSystem(seed=5)
    servers = ["server0.example", "server1.example"]
    for peer_id in (*servers, "client.example"):
        system.add_peer(peer_id)
    monitor = system.add_peer("monitor.example")
    traffic = SoapTrafficGenerator(clients=["client.example"], servers=servers, methods=["Get"], seed=5)
    for peer_id in servers:
        system.peer(peer_id).add_alerter_hook(
            lambda alerter: traffic.attach_alerter(alerter) if hasattr(alerter, "observe_call") else None
        )
    dynamic = monitor.subscribe(
        """
        for $j in areRegistered(<p>monitor.example</p>), $c in inCOM($j)
        return <dyn callee="{$c.callee}"/>
        """,
        sub_id="a-dyn",
        max_results=1024,
    )
    system.run()
    static = monitor.subscribe(
        'for $c in inCOM(<p>monitor.example</p>) return <static callee="{$c.callee}"/>',
        sub_id="a-static",
        max_results=1024,
        reuse=True,
    )
    system.run()
    assert static.reuse_report.reused == []
    system.kadop.join_peer("server0.example")
    system.run()
    traffic.run(60)
    system.run()
    assert {item.attrib["callee"] for item in dynamic.results()} == {"server0.example"}
    # nobody calls the monitor itself
    assert static.results() == []


def test_identical_membership_driven_subscriptions_share_their_source():
    """A second ``inCOM($j)`` subscription reuses the first one's membership
    stream, its membership-driven source and its restructuring, and keeps
    delivering once the first is cancelled."""
    system = P2PMSystem(seed=5)
    servers = ["server0.example", "server1.example"]
    for peer_id in (*servers, "client.example"):
        system.add_peer(peer_id)
    monitor = system.add_peer("monitor.example")
    traffic = SoapTrafficGenerator(clients=["client.example"], servers=servers, methods=["Get"], seed=5)
    for peer_id in servers:
        system.peer(peer_id).add_alerter_hook(
            lambda alerter: traffic.attach_alerter(alerter) if hasattr(alerter, "observe_call") else None
        )
    query = """
        for $j in areRegistered(<p>monitor.example</p>), $c in inCOM($j)
        return <dyn callee="{$c.callee}"/>
        """
    first = monitor.subscribe(query, sub_id="a", max_results=1024)
    system.run()
    second = monitor.subscribe(query, sub_id="b", max_results=1024, reuse=True)
    system.run()
    reused = [stream for _, stream, _ in second.reuse_report.reused]
    assert "a.s1@monitor.example" in reused and "a.s2@monitor.example" in reused
    assert second.operator_count == 0
    system.kadop.join_peer("server0.example")
    system.run()
    traffic.run(60)
    system.run()
    assert len(first.results()) == len(second.results()) > 0
    delivered = len(second.results())
    first.cancel()
    system.run()
    traffic.run(60)
    system.run()
    assert len(second.results()) > delivered
    assert {item.attrib["callee"] for item in second.results()} == {"server0.example"}
    assert system.stream_db.verify_index_coherence() == []
