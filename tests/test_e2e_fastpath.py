"""The delivery fast path must not change observable behaviour.

PR 4 rewrote the publish->deliver->process pipeline for throughput: cached
``Element.weight()``/``size()``, a batched channel fan-out that hands every
subscriber the emitted item itself (in one wrapper per sequence number), a
slimmed ``SimNetwork`` scheduler with a no-fault fast path, and lazy
network-stats aggregation.  These tests pin the *pre-rewrite* behaviour:

* golden trace fingerprints of seeded chaos scenarios, captured on the
  commit immediately before the rewrite -- a differential test against the
  old scheduler without keeping the old code around;
* the exact per-subscriber delivery order of a seeded faulty fan-out;
* weight/size cache invalidation semantics (mutate-after-weight must
  recompute, including through ancestors);
* equivalence of ``send_many`` with a loop of ``send`` calls.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.net.faults import FaultModel
from repro.net.peer import Peer
from repro.net.simnet import SimNetwork
from repro.scenarios.catalog import make_scenario
from repro.xmlmodel.tree import Element


#: Fingerprints captured on the pre-fast-path scheduler (PR 3 tree) for the
#: same scenario/seed pairs.  The rewrite must reproduce them byte for byte.
GOLDEN_FINGERPRINTS = {
    ("flaky-network", 0): (
        "36517f09c0087bb62f8357b9b4158556e064a82c8ec635e88b27cedec60e1735"
    ),
    ("partition-heal", 7): (
        "14fb7e0c7bb6665befab9b72dc3146d628bc4f1001c904aea5be50afd4c55563"
    ),
    ("lossy-network", 0): (
        "1dfc3881162bba9eefbf37cebb15a79fdeaf63450b9abd9d633d7dbca238dcdf"
    ),
    # re-pinned three times: first when dead-destination drops became
    # symmetric (sends *to* an already-failed peer drop at send time, moving
    # 15 churn-soak drop lines earlier in the trace), then when recovery
    # redeployment became make-before-break (the replacement deploys before
    # the old incarnation is torn down, so unpublish/EOS traffic now follows
    # the new subscribes), then when unpublishing a channel whose stream had
    # closed stopped sending its subscribers a second channel.eos.  The
    # other three scenarios never redeploy, never send to a down peer and
    # never tear a channel down, so their traces are untouched.
    ("churn-soak", 42): (
        "565f029688872909c37a570a84c22de1e8a52bd59ad638e33dd0ca9ab1466d30"
    ),
}

#: sha256(repr(order)) of the (subscriber, item-number) delivery sequence of
#: the seeded faulty fan-out below, captured pre-rewrite; plus the network's
#: own event-trace fingerprint and the delivered-message count.
GOLDEN_FANOUT_ORDER = (
    "31b26d02c59afbdd8eeb4efe91e746074efad077fa55a91635e2e76ed2cc7c9f"
)
GOLDEN_FANOUT_TRACE = (
    "7e63dffca33ee0e6e03b9e1d3f843669a3af20dd806c9f7e8627d442a9e39397"
)
GOLDEN_FANOUT_DELIVERIES = 488


class TestSchedulerDifferential:
    @pytest.mark.parametrize("name,seed", sorted(GOLDEN_FINGERPRINTS))
    def test_chaos_scenario_fingerprints_unchanged(self, name: str, seed: int):
        # oracle mode pins the legacy trace: no heartbeats, no acks, no
        # retransmissions -- the detector-mode machinery must stay fully
        # inert when the failure oracle is on
        result = make_scenario(name, seed=seed, failure_mode="oracle").run()
        assert result.ok, [inv for inv in result.invariants if not inv.ok]
        assert result.fingerprint == GOLDEN_FINGERPRINTS[(name, seed)]

    def test_faulty_fanout_delivery_order_unchanged(self):
        network = SimNetwork(
            seed=3,
            fault_model=FaultModel(
                loss_rate=0.1, duplication_rate=0.1, jitter=0.002, bandwidth=50000
            ),
        )
        network.record_events = True
        publisher = Peer("pub", network)
        subscriber_peers = [Peer(f"sub{i}", network) for i in range(20)]
        stream = publisher.create_stream("s")
        publisher.publish_channel("ch", stream)
        proxies = [p.subscribe_channel("pub", "ch") for p in subscriber_peers]
        network.run()

        order: list[tuple[str, str | None]] = []
        for proxy, peer in zip(proxies, subscriber_peers):
            proxy.subscribe(
                lambda item, sid=peer.peer_id: order.append(
                    (sid, item.attrib.get("n"))
                )
            )
        for n in range(30):
            stream.emit(
                Element("alert", {"n": n}, [Element("body", text="x" * 50)])
            )
        network.run_until_idle()

        assert len(order) == GOLDEN_FANOUT_DELIVERIES
        digest = hashlib.sha256(repr(order).encode("utf-8")).hexdigest()
        assert digest == GOLDEN_FANOUT_ORDER
        assert network.trace_fingerprint() == GOLDEN_FANOUT_TRACE

    def test_rerun_is_deterministic(self):
        first = make_scenario("flaky-network", seed=5).run()
        second = make_scenario("flaky-network", seed=5).run()
        assert first.fingerprint == second.fingerprint


class TestWeightCache:
    def make_tree(self) -> Element:
        return Element(
            "alert",
            {"type": "slow"},
            [Element("call", {"id": "7"}), Element("body", text="hello")],
        )

    def uncached_weight(self, node: Element) -> int:
        total = 2 * len(node.tag) + 5
        for name, value in node.attrib.items():
            total += len(name) + len(value) + 4
        if node.text:
            total += len(node.text)
        for child in node.children:
            total += self.uncached_weight(child)
        return total

    def test_weight_is_cached_and_correct(self):
        tree = self.make_tree()
        assert tree.weight() == self.uncached_weight(tree)
        assert tree.weight() == tree.weight()

    def test_mutate_after_weight_recomputes(self):
        tree = self.make_tree()
        before = tree.weight()
        tree.set("extra", "attribute-value")
        assert tree.weight() == self.uncached_weight(tree)
        assert tree.weight() != before

    def test_child_mutation_invalidates_ancestors(self):
        tree = self.make_tree()
        tree.weight(), tree.size()
        tree.children[1].text = "a much longer text payload"
        assert tree.weight() == self.uncached_weight(tree)

    def test_append_invalidates_weight_and_size(self):
        tree = self.make_tree()
        w, s = tree.weight(), tree.size()
        tree.append(Element("note", text="late"))
        assert tree.size() == s + 1
        assert tree.weight() == self.uncached_weight(tree) and tree.weight() > w

    def test_deep_append_invalidates_root(self):
        tree = self.make_tree()
        tree.weight()
        tree.children[0].append(Element("nested"))
        assert tree.weight() == self.uncached_weight(tree)

    def test_copy_carries_cache_but_stays_independent(self):
        tree = self.make_tree()
        tree.weight()
        clone = tree.copy()
        assert clone.weight() == tree.weight()
        clone.children[0].set("id", "a-very-different-id")
        assert clone.weight() == self.uncached_weight(clone)
        assert tree.weight() == self.uncached_weight(tree)
        assert clone.weight() != tree.weight()

    def test_text_setter_invalidates(self):
        node = Element("n", text="short")
        before = node.weight()
        node.text = "a considerably longer text"
        assert node.weight() == self.uncached_weight(node)
        assert node.weight() != before

    def test_invalidate_caches_is_safe_on_fresh_nodes(self):
        node = Element("n")
        node.invalidate_caches()  # no caches yet: must be a no-op
        assert node.weight() == self.uncached_weight(node)


class TestSendMany:
    def build(self, fault_model=None, seed=9):
        network = SimNetwork(seed=seed, fault_model=fault_model)
        Peer("a", network)
        Peer("b", network)
        Peer("c", network)
        return network

    def payloads(self):
        return [Element("m", {"n": str(i)}, text="y" * i) for i in range(6)]

    def collect(self, network: SimNetwork):
        got: list[tuple[str, str, str]] = []
        for peer_id in ("b", "c"):
            peer = network.peer(peer_id)
            peer.register_handler(
                "t.msg",
                lambda m, pid=peer_id: got.append(
                    (pid, m.source, m.payload.attrib["n"])
                ),
            )
        return got

    def test_send_many_equals_send_loop(self):
        for fault_model in (
            None,
            FaultModel(loss_rate=0.2, duplication_rate=0.2, jitter=0.01),
        ):
            loop_net = self.build(fault_model)
            loop_got = self.collect(loop_net)
            for payload in self.payloads():
                for destination in ("b", "c"):
                    loop_net.send("a", destination, "t.msg", payload)
            loop_net.run()

            batch_net = self.build(fault_model)
            batch_got = self.collect(batch_net)
            sends = [
                (destination, "t.msg", payload)
                for payload in self.payloads()
                for destination in ("b", "c")
            ]
            batch_net.send_many("a", sends)
            batch_net.run()

            assert batch_got == loop_got
            assert (
                batch_net.stats.snapshot() == loop_net.stats.snapshot()
            )
            assert batch_net.stats.per_peer_sent == loop_net.stats.per_peer_sent

    def test_send_many_from_down_peer_drops_everything(self):
        network = self.build()
        got = self.collect(network)
        network.fail_peer("a")
        sent = network.send_many(
            "a", [("b", "t.msg", Element("m", {"n": "0"}))]
        )
        network.run()
        assert got == []
        assert sent is None  # no list of messages: nobody read it
        assert network.messages_dropped_peer_down == 1

    def test_send_many_unknown_destination_raises(self):
        from repro.net.errors import UnknownPeerError

        network = self.build()
        with pytest.raises(UnknownPeerError):
            network.send_many("a", [("nobody", "t.msg", Element("m"))])


class TestChannelFanoutCache:
    def test_sorted_subscribers_cache_invalidation(self):
        network = SimNetwork(seed=1)
        publisher = Peer("pub", network)
        stream = publisher.create_stream("s")
        channel = publisher.publish_channel("ch", stream)
        subscriber_peers = [Peer(f"z{i}", network) for i in range(3)]
        for peer in subscriber_peers:
            peer.subscribe_channel("pub", "ch")
        network.run()
        assert channel.sorted_subscribers() == ("z0", "z1", "z2")
        subscriber_peers[1].channels.unsubscribe_remote("pub", "ch")
        network.run()
        assert channel.sorted_subscribers() == ("z0", "z2")
        channel.add_subscriber("aa")
        assert channel.sorted_subscribers() == ("aa", "z0", "z2")
        channel.remove_subscriber("aa")
        assert channel.sorted_subscribers() == ("z0", "z2")

    def test_fanout_delivers_equal_trees_to_every_subscriber(self):
        network = SimNetwork(seed=2)
        publisher = Peer("pub", network)
        stream = publisher.create_stream("s")
        publisher.publish_channel("ch", stream)
        sinks = {}
        for i in range(4):
            peer = Peer(f"r{i}", network)
            proxy = peer.subscribe_channel("pub", "ch")
            received = sinks[peer.peer_id] = []
            proxy.subscribe(received.append)
        network.run()
        item = Element("alert", {"n": "1"}, [Element("body", text="payload")])
        stream.emit(item)
        network.run()
        for peer_id, received in sinks.items():
            assert len(received) == 1
            assert received[0] == item
            # an emitted item is immutable, so it crosses the link uncopied:
            # every remote subscriber receives the emitted object itself,
            # and the link accounts the same 107 bytes for the message
            assert received[0] is item
            assert network.stats.links[("pub", peer_id)].bytes == 107

    def test_fanout_batch_keeps_per_subscriber_seq_dedup(self):
        network = SimNetwork(
            seed=4, fault_model=FaultModel(duplication_rate=0.5)
        )
        publisher = Peer("pub", network)
        stream = publisher.create_stream("s")
        publisher.publish_channel("ch", stream)
        peer = Peer("r", network)
        network.set_fault_model(None)
        proxy = peer.subscribe_channel("pub", "ch")
        network.run()
        network.set_fault_model(FaultModel(duplication_rate=0.5))
        received = []
        proxy.subscribe(received.append)
        items = [Element("alert", {"n": str(n)}) for n in range(40)]
        stream.emit_many(items)
        network.run()
        assert [item.attrib["n"] for item in received] == [
            str(n) for n in range(40)
        ]
        assert proxy.duplicates_dropped > 0
