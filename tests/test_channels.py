"""Tests for channel publication and subscription across peers."""

import pytest

from repro.net import Peer, RemoteChannelProxy, SimNetwork
from repro.net.errors import UnknownChannelError
from repro.streams import collect
from repro.xmlmodel import Element


@pytest.fixture
def network() -> SimNetwork:
    return SimNetwork(seed=1)


@pytest.fixture
def publisher(network) -> Peer:
    return Peer("pub.com", network)


@pytest.fixture
def subscriber(network) -> Peer:
    return Peer("sub.com", network)


class TestPublication:
    def test_publish_and_lookup(self, publisher):
        stream = publisher.create_stream("alerts")
        channel = publisher.publish_channel("X", stream)
        assert channel.qualified_id == "#X@pub.com"
        assert publisher.channels.publishes("X")
        assert publisher.channels.published("X") is channel
        assert publisher.channels.published_ids == ["X"]

    def test_duplicate_channel_rejected(self, publisher):
        stream = publisher.create_stream("alerts")
        publisher.publish_channel("X", stream)
        with pytest.raises(ValueError):
            publisher.publish_channel("X", stream)

    def test_unknown_channel_lookup(self, publisher):
        with pytest.raises(UnknownChannelError):
            publisher.channels.published("nope")


class TestSubscription:
    def test_remote_subscription_delivers_items(self, network, publisher, subscriber):
        stream = publisher.create_stream("alerts")
        publisher.publish_channel("X", stream)
        proxy = subscriber.subscribe_channel("pub.com", "X")
        network.run()  # deliver the subscribe message
        received = collect(proxy)
        stream.emit(Element("alert", {"n": "1"}))
        stream.emit(Element("alert", {"n": "2"}))
        network.run()
        assert [e.attrib["n"] for e in received] == ["1", "2"]
        assert publisher.channels.published("X").subscribers == {"sub.com"}

    def test_items_before_subscription_are_missed(self, network, publisher, subscriber):
        stream = publisher.create_stream("alerts")
        publisher.publish_channel("X", stream)
        stream.emit(Element("alert", {"n": "early"}))
        proxy = subscriber.subscribe_channel("pub.com", "X")
        network.run()
        received = collect(proxy)
        stream.emit(Element("alert", {"n": "late"}))
        network.run()
        assert [e.attrib["n"] for e in received] == ["late"]

    def test_multiple_subscribers(self, network, publisher):
        peers = [Peer(f"client{i}.com", network) for i in range(3)]
        stream = publisher.create_stream("alerts")
        publisher.publish_channel("X", stream)
        proxies = [p.subscribe_channel("pub.com", "X") for p in peers]
        network.run()
        sinks = [collect(proxy) for proxy in proxies]
        stream.emit(Element("alert"))
        network.run()
        assert all(len(sink) == 1 for sink in sinks)

    def test_duplicate_subscription_returns_same_proxy(self, network, publisher, subscriber):
        stream = publisher.create_stream("alerts")
        publisher.publish_channel("X", stream)
        proxy1 = subscriber.subscribe_channel("pub.com", "X")
        proxy2 = subscriber.subscribe_channel("pub.com", "X")
        assert proxy1 is proxy2

    def test_local_subscription_shortcut(self, network, publisher):
        stream = publisher.create_stream("alerts")
        publisher.publish_channel("X", stream)
        proxy = publisher.subscribe_channel("pub.com", "X")
        received = collect(proxy)
        stream.emit(Element("alert"))
        # no network round trip needed
        assert len(received) == 1
        assert network.stats.total_messages == 0

    def test_eos_propagates_to_proxy(self, network, publisher, subscriber):
        stream = publisher.create_stream("alerts")
        publisher.publish_channel("X", stream)
        proxy = subscriber.subscribe_channel("pub.com", "X")
        network.run()
        stream.emit(Element("alert"))
        stream.close()
        network.run()
        assert proxy.closed

    def test_end_of_a_channel_nobody_subscribed_to_sends_nothing(self, network, publisher):
        closed = publisher.create_stream("closed")
        publisher.publish_channel("X", closed)
        publisher.publish_channel("Y", publisher.create_stream("withdrawn"))
        closed.close()
        assert publisher.channels.unpublish("Y")
        network.run()
        assert network.stats.total_messages == 0

    def test_unsubscribe_stops_delivery(self, network, publisher, subscriber):
        stream = publisher.create_stream("alerts")
        publisher.publish_channel("X", stream)
        proxy = subscriber.subscribe_channel("pub.com", "X")
        network.run()
        received = collect(proxy)
        subscriber.channels.unsubscribe_remote("pub.com", "X")
        network.run()
        stream.emit(Element("alert"))
        network.run()
        assert received == []
        assert publisher.channels.published("X").subscribers == set()

    def test_proxy_lookup(self, network, publisher, subscriber):
        stream = publisher.create_stream("alerts")
        publisher.publish_channel("X", stream)
        subscriber.subscribe_channel("pub.com", "X")
        assert subscriber.channels.proxy("pub.com", "X") is not None
        with pytest.raises(UnknownChannelError):
            subscriber.channels.proxy("pub.com", "Y")

    def test_channel_relay_chain(self, network):
        """a.com -> b.com -> meteo.com relay, as in the Figure 4 plan."""
        a = Peer("a.com", network)
        b = Peer("b.com", network)
        meteo = Peer("meteo.com", network)
        out_a = a.create_stream("outA")
        a.publish_channel("X", out_a)
        # b republishes what it receives from a
        proxy_at_b = b.subscribe_channel("a.com", "X")
        merged = b.create_stream("merged")
        proxy_at_b.subscribe(merged.push)
        b.publish_channel("Y", merged)
        proxy_at_meteo = meteo.subscribe_channel("b.com", "Y")
        network.run()
        received = collect(proxy_at_meteo)
        out_a.emit(Element("alert", {"from": "a"}))
        network.run()
        assert len(received) == 1
        assert received[0].attrib["from"] == "a"


class TestExactlyOnceDelivery:
    """Sequence-numbered items survive a duplicating/reordering network."""

    def test_duplicated_messages_are_dropped_at_the_proxy(self):
        from repro.net import FaultModel

        network = SimNetwork(seed=3, fault_model=FaultModel(duplication_rate=1.0))
        publisher = Peer("pub.com", network)
        subscriber = Peer("sub.com", network)
        stream = publisher.create_stream("alerts")
        publisher.publish_channel("X", stream)
        network.set_fault_model(None)  # deploy the subscription cleanly
        proxy = subscriber.subscribe_channel("pub.com", "X")
        network.run()
        network.set_fault_model(FaultModel(duplication_rate=1.0))
        received = collect(proxy)
        for i in range(5):
            stream.emit(Element("alert", {"n": str(i)}))
        network.run()
        assert [item.attrib["n"] for item in received] == ["0", "1", "2", "3", "4"]
        assert proxy.duplicates_dropped == 5
        assert network.messages_duplicated == 5

    def test_seq_numbers_are_per_subscriber(self):
        network = SimNetwork(seed=1)
        publisher = Peer("pub.com", network)
        first = Peer("a.com", network)
        second = Peer("b.com", network)
        stream = publisher.create_stream("alerts")
        channel = publisher.publish_channel("X", stream)
        proxy_a = first.subscribe_channel("pub.com", "X")
        proxy_b = second.subscribe_channel("pub.com", "X")
        network.run()
        got_a, got_b = collect(proxy_a), collect(proxy_b)
        stream.emit(Element("alert"))
        stream.emit(Element("alert"))
        network.run()
        assert len(got_a) == len(got_b) == 2
        assert channel.next_seq == {"a.com": 2, "b.com": 2}

    def test_stale_subscribe_receives_end_of_channel(self):
        """A subscribe in flight while the channel is withdrawn must not crash."""
        network = SimNetwork(seed=1)
        publisher = Peer("pub.com", network)
        subscriber = Peer("sub.com", network)
        stream = publisher.create_stream("alerts")
        publisher.publish_channel("X", stream)
        proxy = subscriber.subscribe_channel("pub.com", "X")
        publisher.unpublish_channel("X")  # withdrawn before the subscribe lands
        network.run()
        assert proxy.closed  # the publisher answered with end-of-channel

    def test_seq_dedup_memory_is_bounded(self):
        proxy = RemoteChannelProxy("pub.com", "X", "sub.com")
        window = RemoteChannelProxy.SEQ_WINDOW
        for seq in range(window * 3):
            assert proxy.accept_seq(seq) is True
        assert len(proxy.seen_seqs) <= window
        # everything inside the retained window still dedups
        assert proxy.accept_seq(window * 3 - 1) is False
        # a seq far below the floor is treated as already seen (safe direction)
        assert proxy.accept_seq(0) is False


class TestReliableDelivery:
    """Acknowledged delivery: outboxes, retransmission, takeover, adoption."""

    def build(self, seed=2):
        network = SimNetwork(seed=seed)
        publisher = Peer("pub.com", network)
        subscriber = Peer("sub.com", network)
        publisher.channels.reliable = True
        subscriber.channels.reliable = True
        stream = publisher.create_stream("alerts")
        publisher.publish_channel("X", stream)
        proxy = subscriber.subscribe_channel("pub.com", "X")
        network.run()
        return network, publisher, subscriber, stream, proxy

    def test_retransmission_recovers_from_total_loss(self):
        from repro.net import FaultModel

        network, publisher, subscriber, stream, proxy = self.build()
        received = collect(proxy)
        network.set_fault_model(FaultModel(loss_rate=1.0))
        for i in range(3):
            stream.emit(Element("alert", {"n": str(i)}))
        network.run()
        assert received == []
        channel = publisher.channels.published("X")
        assert len(channel.outbox["sub.com"]) == 3  # held until acked
        network.set_fault_model(None)
        publisher.channels.retransmit_tick()
        network.run()
        assert [e.attrib["n"] for e in received] == ["0", "1", "2"]
        assert network.stats.items_retransmitted == 3
        # the acks drained the outbox: nothing left to re-send
        assert not channel.outbox
        publisher.channels.retransmit_tick()
        assert network.stats.items_retransmitted == 3

    def test_confirmed_dead_subscriber_is_not_retransmitted_to(self):
        network, publisher, subscriber, stream, proxy = self.build()
        network.fail_peer("sub.com")
        publisher.channels.handle_peer_death("sub.com")
        stream.emit(Element("alert", {"n": "0"}))
        network.run()
        publisher.channels.retransmit_tick()
        network.run()
        # the item waits in the outbox instead of burning retries
        assert network.stats.items_retransmitted == 0
        channel = publisher.channels.published("X")
        assert len(channel.outbox["sub.com"]) == 1

    def test_takeover_subscriber_claims_orphaned_items(self):
        network, publisher, subscriber, stream, proxy = self.build()
        network.fail_peer("sub.com")
        publisher.channels.handle_peer_death("sub.com")
        for i in range(2):
            stream.emit(Element("alert", {"n": str(i)}))
        network.run()
        taker = Peer("taker.com", network)
        taker.channels.reliable = True
        takeover_proxy = taker.subscribe_channel("pub.com", "X")
        network.run()  # admit_subscriber claims the dead consumer's items
        received = collect(takeover_proxy)
        channel = publisher.channels.published("X")
        assert channel.subscribers == {"taker.com"}  # claim supersedes dead
        assert channel.dead == set()
        # staged replays flush on the next tick, as fresh sequenced items
        publisher.channels.retransmit_tick()
        network.run()
        assert [e.attrib["n"] for e in received] == ["0", "1"]
        assert network.stats.items_replayed == 2

    def test_rejoining_subscriber_resumes_without_loss(self):
        network, publisher, subscriber, stream, proxy = self.build()
        received = collect(proxy)
        network.fail_peer("sub.com")
        publisher.channels.handle_peer_death("sub.com")
        for i in range(2):
            stream.emit(Element("alert", {"n": str(i)}))
        network.run()
        assert received == []
        network.revive_peer("sub.com")
        publisher.channels.handle_peer_rejoin("sub.com")
        publisher.channels.retransmit_tick()
        network.run()
        assert [e.attrib["n"] for e in received] == ["0", "1"]

    def test_unreachable_undetected_subscriber_sheds_at_retry_limit(self):
        network, publisher, subscriber, stream, proxy = self.build()
        # down but never confirmed dead: the detector hasn't spoken, so the
        # sweep keeps trying until the per-item retry budget runs out
        network.fail_peer("sub.com")
        stream.emit(Element("alert", {"n": "0"}))
        network.run()
        limit = publisher.channels.RETRY_LIMIT
        for _ in range(limit + 1):
            publisher.channels.retransmit_tick()
            network.run()
        assert network.stats.items_retransmitted == limit
        assert network.stats.items_shed == 1
        assert not publisher.channels.published("X").outbox

    def test_adopted_orphans_reach_the_successor_channel(self):
        network = SimNetwork(seed=4)
        publisher = Peer("pub.com", network)
        consumer = Peer("c1.com", network)
        publisher.channels.reliable = True
        consumer.channels.reliable = True
        old_stream = publisher.create_stream("job.e0.s1")
        publisher.publish_channel("job.e0.s1", old_stream)
        consumer.subscribe_channel("pub.com", "job.e0.s1")
        network.run()
        network.fail_peer("c1.com")
        publisher.channels.handle_peer_death("c1.com")
        for i in range(2):
            old_stream.emit(Element("alert", {"n": str(i)}))
        network.run()
        # the redeploy publishes the same operator output under the next
        # epoch's name; a fresh consumer subscribes to the new incarnation
        new_stream = publisher.create_stream("job.e1.s1")
        publisher.publish_channel("job.e1.s1", new_stream)
        taker = Peer("c2.com", network)
        taker.channels.reliable = True
        takeover_proxy = taker.subscribe_channel("pub.com", "job.e1.s1")
        network.run()
        received = collect(takeover_proxy)
        assert publisher.channels.adopt_orphans("job.e0.s1", new_stream) == 2
        # the adoption holds one round (the deploy tick's subscribe traffic
        # may still be in flight), then emits into the successor
        publisher.channels.retransmit_tick()
        network.run()
        assert received == []
        publisher.channels.retransmit_tick()
        network.run()
        assert [e.attrib["n"] for e in received] == ["0", "1"]
        assert network.stats.items_replayed == 2

    def test_adoption_sheds_when_the_successor_never_gains_consumers(self):
        network = SimNetwork(seed=5)
        publisher = Peer("pub.com", network)
        consumer = Peer("c1.com", network)
        publisher.channels.reliable = True
        old_stream = publisher.create_stream("job.e0.s1")
        publisher.publish_channel("job.e0.s1", old_stream)
        publisher.channels.admit_subscriber("job.e0.s1", "c1.com")
        network.fail_peer("c1.com")
        publisher.channels.handle_peer_death("c1.com")
        old_stream.emit(Element("alert"))
        new_stream = publisher.create_stream("job.e1.s1")
        publisher.publish_channel("job.e1.s1", new_stream)
        assert publisher.channels.adopt_orphans("job.e0.s1", new_stream) == 1
        for _ in range(publisher.channels.RETRY_LIMIT + 2):
            publisher.channels.retransmit_tick()
        assert network.stats.items_shed == 1
        assert publisher.channels._pending_adoptions == []
