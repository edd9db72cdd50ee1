"""Tests for the network fault kernel: fault models, partitions, peer churn."""

import pytest

from repro.net import FaultModel, Peer, SimNetwork, UnknownPeerError
from repro.xmlmodel import Element


def make_network(n: int = 3, seed: int = 7, **kwargs) -> tuple[SimNetwork, list[Peer]]:
    network = SimNetwork(seed=seed, **kwargs)
    peers = [Peer(f"p{i}", network) for i in range(n)]
    return network, peers


def wire(peers: list[Peer], kind: str = "x") -> list:
    log: list = []
    for peer in peers:
        peer.register_handler(kind, lambda m, log=log: log.append(m))
    return log


class TestFaultModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultModel(duplication_rate=-0.1)
        with pytest.raises(ValueError):
            FaultModel(jitter=-1)
        with pytest.raises(ValueError):
            FaultModel(bandwidth=0)

    def test_total_loss_drops_everything(self):
        network, peers = make_network(2, fault_model=FaultModel(loss_rate=1.0))
        log = wire(peers)
        for _ in range(10):
            peers[0].send("p1", "x", Element("a"))
        network.run()
        assert log == []
        assert network.messages_lost == 10

    def test_duplication_without_channel_layer_delivers_copies(self):
        network, peers = make_network(2, fault_model=FaultModel(duplication_rate=1.0))
        log = wire(peers)
        peers[0].send("p1", "x", Element("a"))
        network.run()
        assert len(log) == 2
        assert network.messages_duplicated == 1

    def test_bandwidth_delays_by_size(self):
        slow = FaultModel(bandwidth=10.0)
        network, peers = make_network(2, fault_model=slow)
        wire(peers)
        bulky = Element("data", {"k": "v" * 100})
        message = peers[0].send("p1", "x", bulky)
        plain_latency = network.latency("p0", "p1")
        assert message.deliver_at == pytest.approx(
            plain_latency + bulky.weight() / 10.0
        )

    def test_jitter_can_reorder(self):
        network, peers = make_network(2, seed=3, fault_model=FaultModel(jitter=10.0))
        order: list[str] = []
        peers[1].register_handler("x", lambda m: order.append(m.payload.tag))
        for tag in ("a", "b", "c", "d", "e", "f"):
            peers[0].send("p1", "x", Element(tag))
        network.run()
        assert sorted(order) == ["a", "b", "c", "d", "e", "f"]
        assert order != ["a", "b", "c", "d", "e", "f"]  # jitter reordered

    def test_set_fault_model_at_runtime(self):
        network, peers = make_network(2)
        log = wire(peers)
        peers[0].send("p1", "x", Element("a"))
        network.set_fault_model(FaultModel(loss_rate=1.0))
        peers[0].send("p1", "x", Element("b"))
        network.set_fault_model(None)
        peers[0].send("p1", "x", Element("c"))
        network.run()
        assert [m.payload.tag for m in log] == ["a", "c"]


class TestPartitions:
    def test_partition_holds_and_heal_releases(self):
        network, peers = make_network(3)
        log = wire(peers)
        network.partition("split", ["p0"], ["p1", "p2"])
        peers[0].send("p1", "x", Element("held"))
        peers[1].send("p2", "x", Element("free"))
        network.run()
        assert [m.payload.tag for m in log] == ["free"]
        assert network.held_messages == 1
        assert network.active_partitions == ["split"]
        released = network.heal("split")
        network.run()
        assert released == 1
        assert sorted(m.payload.tag for m in log) == ["free", "held"]
        assert network.held_messages == 0

    def test_heal_unknown_partition_is_noop(self):
        network, _ = make_network(2)
        assert network.heal("nope") == 0

    def test_duplicate_partition_name_rejected(self):
        network, _ = make_network(3)
        network.partition("a", ["p0"], ["p1"])
        with pytest.raises(ValueError):
            network.partition("a", ["p0"], ["p2"])

    def test_overlapping_groups_rejected(self):
        network, _ = make_network(3)
        with pytest.raises(ValueError):
            network.partition("a", ["p0", "p1"], ["p1", "p2"])

    def test_unnamed_peers_unaffected(self):
        network, peers = make_network(3)
        log = wire(peers)
        network.partition("split", ["p0"], ["p1"])
        peers[2].send("p0", "x", Element("a"))
        peers[2].send("p1", "x", Element("b"))
        network.run()
        assert len(log) == 2


class TestPeerLifecycle:
    def test_fail_and_revive(self):
        network, peers = make_network(2)
        log = wire(peers)
        assert network.fail_peer("p1") is True
        assert network.fail_peer("p1") is False  # already down
        assert not network.is_alive("p1")
        assert network.down_peers() == {"p1"}
        peers[0].send("p1", "x", Element("a"))
        network.run()
        assert log == []
        assert network.revive_peer("p1") is True
        assert network.revive_peer("p1") is False
        peers[0].send("p1", "x", Element("b"))
        network.run()
        assert [m.payload.tag for m in log] == ["b"]

    def test_send_from_down_peer_dropped(self):
        network, peers = make_network(2)
        log = wire(peers)
        network.fail_peer("p0")
        peers[0].send("p1", "x", Element("a"))
        network.run()
        assert log == []
        assert network.messages_dropped_peer_down == 1

    def test_revive_before_delivery_still_delivers(self):
        network, peers = make_network(2)
        log = wire(peers)
        peers[0].send("p1", "x", Element("a"))
        network.fail_peer("p1")
        network.revive_peer("p1")
        network.run()
        assert [m.payload.tag for m in log] == ["a"]

    def test_unknown_peer_rejected(self):
        network, _ = make_network(1)
        with pytest.raises(UnknownPeerError):
            network.fail_peer("ghost")
        with pytest.raises(UnknownPeerError):
            network.revive_peer("ghost")


class TestRngSplit:
    def test_registering_peer_mid_run_does_not_perturb_fault_draws(self):
        """The satellite bugfix: topology draws must not shift runtime draws."""

        def run(register_extra: bool) -> list[str]:
            network, peers = make_network(
                2, seed=13, fault_model=FaultModel(loss_rate=0.5)
            )
            delivered: list[str] = []
            peers[1].register_handler("x", lambda m: delivered.append(m.payload.tag))
            for i in range(10):
                peers[0].send("p1", "x", Element(f"t{i}"))
            if register_extra:
                Peer("latecomer", network)  # consumes topology_rng only
            for i in range(10, 20):
                peers[0].send("p1", "x", Element(f"t{i}"))
            network.run()
            return delivered

        assert run(register_extra=True) == run(register_extra=False)


class TestEventLog:
    def test_log_disabled_by_default(self):
        network, peers = make_network(2)
        wire(peers)
        peers[0].send("p1", "x", Element("a"))
        network.run()
        assert network.event_log == []

    def test_log_is_deterministic(self):
        def run() -> tuple[list[str], str]:
            network, peers = make_network(3, seed=11, fault_model=FaultModel(loss_rate=0.3))
            network.record_events = True
            wire(peers)
            network.partition("cut", ["p0"], ["p2"])
            for i in range(8):
                peers[0].send(f"p{1 + i % 2}", "x", Element(f"t{i}"))
            network.fail_peer("p1")
            network.run()
            network.heal("cut")
            network.revive_peer("p1")
            network.run()
            return network.event_log, network.trace_fingerprint()

        first_log, first_print = run()
        second_log, second_print = run()
        assert first_log == second_log
        assert first_print == second_print
        assert any(event.split(" ", 1)[1].startswith("fail ") for event in first_log)
        assert any("heal" in event for event in first_log)


class TestHealWithDepartedPeers:
    def test_heal_drops_messages_for_unregistered_peers(self):
        network, peers = make_network(3)
        log = wire(peers)
        network.partition("cut", ["p0"], ["p1", "p2"])
        peers[0].send("p1", "x", Element("doomed"))
        peers[0].send("p2", "x", Element("fine"))
        network.unregister("p1")
        released = network.heal("cut")
        network.run()
        assert released == 2
        assert [m.payload.tag for m in log] == ["fine"]

    def test_heal_does_not_reapply_fault_model(self):
        """Held messages are delayed, never lost: a loss model must not eat them."""
        network, peers = make_network(2, fault_model=FaultModel(loss_rate=1.0))
        log = wire(peers)
        network.partition("cut", ["p0"], ["p1"])
        network.set_fault_model(FaultModel(loss_rate=1.0))
        for i in range(5):
            peers[0].send("p1", "x", Element(f"t{i}"))
        assert network.held_messages == 5
        network.heal("cut")
        network.run()
        assert len(log) == 5  # all held messages delivered despite loss_rate=1
