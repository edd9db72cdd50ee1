"""A channel's forwarder sits on its stream only while the channel has a subscriber.

``ChannelRegistry.publish`` hands the channel its forwarder; the channel's
first subscriber attaches it to the stream and its last one takes it off
again, so the many channels nobody subscribes to cost no call on any item or
burst.  Each case runs on an oracle registry (fire-and-forget delivery) and
on a detector-mode one (acknowledged delivery with outboxes).
"""

import gc
import sys

import pytest
from test_delivery_tail import SEEN, alert

from repro.monitor import P2PMSystem
from repro.net.channel import MSG_EOS
from repro.net.peer import Peer
from repro.net.simnet import SimNetwork
from repro.streams import Stream
from repro.streams.stream import collect
from repro.workloads.chaos_feed import CHAOS_FUNCTION

MODES = pytest.mark.parametrize("reliable", [False, True], ids=["oracle", "detector"])


def numbers(items) -> list[int]:
    return [int(item.attrib["n"]) for item in items]


def publisher(reliable: bool):
    network = SimNetwork(seed=5)
    pub = Peer("pub", network)
    pub.channels.reliable = reliable
    stream = pub.create_stream("s")
    channel = pub.publish_channel("ch", stream)
    return network, pub, stream, channel


def subscribe(network: SimNetwork, peer_id: str, reliable: bool) -> list:
    peer = network.peer(peer_id) if network.has_peer(peer_id) else Peer(peer_id, network)
    peer.channels.reliable = reliable
    received = collect(peer.subscribe_channel("pub", "ch"))
    network.run()
    return received


def settle(network: SimNetwork, pub: Peer) -> None:
    """Deliver everything, then let a reliable registry retransmit what is unacked."""
    network.run()
    for _ in range(3):
        pub.channels.retransmit_tick()
        network.run()


def attached(channel) -> bool:
    return channel.forward in channel.stream._subscribers


def net_calls(emit) -> int:
    """Calls made into, or from inside, ``repro/net/`` by ``emit()``."""
    calls = 0

    def count(frame, event, argument) -> None:
        nonlocal calls
        if event in ("call", "c_call") and "/repro/net/" in frame.f_code.co_filename:
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        emit()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


@MODES
def test_a_first_subscriber_receives_only_what_follows_once_each_in_order(reliable):
    network, pub, stream, channel = publisher(reliable)
    stream.emit_many([alert(0), alert(1)])
    stream.emit(alert(2))
    assert not attached(channel) and stream.subscriber_count == 0
    received = subscribe(network, "r0", reliable)
    assert attached(channel) and stream.subscriber_count == 1
    stream.emit(alert(3))
    stream.emit_many([alert(4), alert(5)])
    stream.emit(alert(6))
    settle(network, pub)
    assert numbers(received) == [3, 4, 5, 6]
    assert channel.outbox == {}


@MODES
def test_a_channel_its_last_subscriber_left_costs_nothing_and_resumes(reliable):
    network, pub, stream, channel = publisher(reliable)
    first = subscribe(network, "r0", reliable)
    second = subscribe(network, "r1", reliable)
    stream.emit(alert(1))
    settle(network, pub)
    network.peer("r0").channels.unsubscribe_remote("pub", "ch")
    network.run()
    assert attached(channel)  # r1 still reads it
    network.peer("r1").channels.unsubscribe_remote("pub", "ch")
    network.run()
    assert not channel.subscribers and not attached(channel)
    assert net_calls(lambda: stream.emit(alert(2))) == 0
    assert net_calls(lambda: stream.emit_many([alert(3), alert(4)])) == 0
    assert network.run() == 0
    rejoined = subscribe(network, "r1", reliable)
    assert attached(channel) and stream.subscriber_count == 1
    stream.emit_many([alert(5), alert(6)])
    stream.emit(alert(7))
    settle(network, pub)
    assert numbers(first) == [1] and numbers(second) == [1]
    assert numbers(rejoined) == [5, 6, 7]


@MODES
def test_a_confirmed_dead_subscriber_keeps_the_forwarder(reliable):
    network, pub, stream, channel = publisher(reliable)
    subscribe(network, "r0", reliable)
    network.fail_peer("r0", notify=False)
    pub.channels.handle_peer_death("r0")
    stream.emit(alert(1))
    stream.emit_many([alert(2), alert(3)])
    network.run()
    assert channel.subscribers == {"r0"} and attached(channel)
    if not reliable:
        assert channel.outbox == {}  # nothing is held for an oracle registry
        return
    assert sorted(channel.outbox["r0"]) == [0, 1, 2]  # its outbox still fills
    taker = subscribe(network, "taker", reliable)  # the subscribe claims the orphans
    assert channel.subscribers == {"taker"} and attached(channel)
    assert "r0" not in channel.outbox
    settle(network, pub)  # the claimed items are replayed at the next tick
    stream.emit(alert(4))
    settle(network, pub)
    assert numbers(taker) == [1, 2, 3, 4]
    assert network.stats.items_replayed == 3


@MODES
def test_claim_orphans_hands_the_outbox_over(reliable):
    network, pub, stream, channel = publisher(reliable)
    subscribe(network, "r0", reliable)
    network.fail_peer("r0", notify=False)
    pub.channels.handle_peer_death("r0")
    stream.emit_many([alert(1), alert(2)])
    network.run()
    assert attached(channel)
    claimed = pub.channels.claim_orphans(channel, "pub")
    assert claimed == (2 if reliable else 0)  # an oracle registry holds no outbox
    # the claim drops the dead subscriber, the last one: the channel is idle
    assert not channel.subscribers and not attached(channel)


@MODES
def test_unpublish_after_the_last_subscriber_left_sends_no_eos(reliable):
    network, pub, stream, channel = publisher(reliable)
    subscribe(network, "r0", reliable)
    network.peer("r0").channels.unsubscribe_remote("pub", "ch")
    network.run()
    network.trace_enabled = True
    assert pub.channels.unpublish("ch")
    assert network.run() == 0
    assert not [message for message in network.trace if message.kind == MSG_EOS]
    assert stream.subscriber_count == 0 and channel.forward is None


@MODES
def test_unpublish_of_a_subscribed_channel_still_ends_it(reliable):
    network, pub, stream, channel = publisher(reliable)
    received = subscribe(network, "r0", reliable)
    proxy = network.peer("r0").channels.proxy("pub", "ch")
    assert pub.channels.unpublish("ch")
    network.run()
    assert proxy.closed and received == []
    assert not attached(channel) and stream.subscriber_count == 0


@MODES
def test_a_closed_stream_never_reattaches_a_forwarder(reliable):
    network, pub, stream, channel = publisher(reliable)
    received = subscribe(network, "r0", reliable)
    proxy = network.peer("r0").channels.proxy("pub", "ch")
    stream.emit(alert(1))
    stream.close()
    settle(network, pub)
    assert numbers(received) == [1] and proxy.closed
    network.peer("r0").channels.unsubscribe_remote("pub", "ch")
    network.run()
    assert not attached(channel)
    subscribe(network, "r1", reliable)
    assert channel.subscribers == {"r1"}
    assert not attached(channel) and stream.subscriber_count == 0
    # a stream closed before any subscriber arrived attaches nothing either
    idle = pub.create_stream("idle")
    idle_channel = pub.publish_channel("idle", idle)
    idle.close()
    idle_channel.add_subscriber("r1")
    assert idle.subscriber_count == 0


def test_a_withdrawn_forwarder_stays_off():
    stream = Stream("s", "pub")
    network = SimNetwork(seed=5)
    pub = Peer("pub", network)
    channel = pub.publish_channel("ch", stream)
    channel.add_subscriber("r0")
    assert attached(channel)
    channel.unsubscribe()
    assert stream.subscriber_count == 0
    channel.remove_subscriber("r0")
    channel.add_subscriber("r1")
    assert stream.subscriber_count == 0 and channel.forward is None


@pytest.mark.parametrize("failure_mode", ["oracle", "detector"])
def test_a_deployed_system_attaches_exactly_the_subscribed_channels(failure_mode):
    """Over a fan-out with reuse and a cancel: a published channel's stream
    carries its forwarder exactly when the channel has a subscriber."""
    system = P2PMSystem(seed=0, failure_mode=failure_mode)
    alerter = system.add_peer("src").get_or_create_alerter(CHAOS_FUNCTION)
    handles = []
    for i in range(3):
        peer = system.add_peer(f"sub{i}")
        handles.append(peer.subscribe_many([SEEN], sub_ids=[f"s{i}"], reuse=True)[0])
        system.run()
    alerter.emit_numbered(5)
    system.run()
    handles[2].cancel()
    system.run()
    channels = [
        channel
        for peer_id in system.peer_ids
        for channel in system.peer(peer_id).net.channels._published.values()
    ]
    assert any(channel.subscribers for channel in channels)
    assert any(not channel.subscribers for channel in channels)
    for channel in channels:
        assert attached(channel) == bool(channel.subscribers), channel.qualified_id
