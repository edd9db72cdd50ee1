"""The delivery tail: one call per hop, nothing left for the cycle collector.

At the parent commit (9603535) two of these pass -- the wrapper weights and
the byte totals, which pin unchanged behaviour on the new code paths -- and
all the others fail: cyclic garbage is found, parent links are strong, an
idle channel costs more than one call, the valve is not a stream (every
``TestValveIsTheDeliveryStream`` case), a callback that pauses during
``resume()`` keeps receiving, an in-order proxy parks every number it saw,
``send_many`` counts a message it dropped.
"""

import gc
import pickle
import sys

import pytest
import test_e2e_fastpath  # its uncached weight walk is the reference here too
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads.chaos_feed  # noqa: F401 - registers the chaosFeed alerter
from repro.algebra.plan import UNION
from repro.monitor import P2PMSystem
from repro.monitor.lifecycle import DeliveryValve
from repro.net.channel import RemoteChannelProxy
from repro.net.peer import Peer
from repro.net.simnet import SimNetwork
from repro.streams import EOS, Stream, StreamClosedError
from repro.streams.stream import collect
from repro.workloads.chaos_feed import CHAOS_FUNCTION
from repro.xmlmodel.tree import Element

SEEN = (
    'for $x in chaosFeed(<p>src</p>) where $x.kind = "chaos" and $x.n >= 1 '
    "return <seen><src>{$x.source}</src><n>{$x.n}</n></seen>"
)


def alert(n: int) -> Element:
    return Element("alert", {"kind": "chaos", "source": "src", "n": str(n)})


def valve_on(source: Stream, **options) -> DeliveryValve:
    """A delivery valve reading ``source``, named after it."""
    valve = DeliveryValve(f"{source.stream_id}.delivery", source.peer_id, **options)
    valve.connect(source)
    return valve


def fanout(subscribers: int = 3):
    """``src`` and ``sub0..``, each with the same subscription, reuse on:
    ``sub0`` reads the source's channel, every later one its predecessor's
    replica.  Returns the system, the alerter, the handles and the counts."""
    system = P2PMSystem(seed=0)
    alerter = system.add_peer("src").get_or_create_alerter(CHAOS_FUNCTION)
    handles, counts = [], [0] * subscribers
    for i in range(subscribers):
        peer = system.add_peer(f"sub{i}")
        handles.append(peer.subscribe_many([SEEN], sub_ids=[f"s{i}"], reuse=True)[0])
        handles[i].on_result(lambda item, i=i: counts.__setitem__(i, counts[i] + 1))
        system.run()
    return system, alerter, handles, counts


# -- (a) nothing for the cycle collector -------------------------------------------


def test_a_delivery_leaves_no_cyclic_garbage():
    system, alerter, _, counts = fanout()
    alerter.emit_numbered(5)  # warm every path, lazily measured overheads included
    system.run()
    assert system.network.stats.messages_between("sub0", "sub1") == 1  # a replica hop
    gc.collect()
    gc.disable()
    try:
        alerter.output.emit_many([alert(n % 20) for n in range(200)])
        for n in range(50):
            alerter.emit_numbered(n % 20)
        system.run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        unreachable = sum(isinstance(found, Element) for found in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert counts == [238, 238, 238]  # n = 0 is below the threshold
    assert unreachable == 0


def test_parent_links_are_weak_and_survive_pickling():
    tree = Element("a", {"k": "v"}, [Element("b", text="t", children=[Element("c")])])
    leaf = tree.children[0].children[0]
    assert leaf.parent is tree.children[0] and tree.children[0].parent is tree
    for clone in (tree.copy(), pickle.loads(pickle.dumps(tree))):
        assert clone == tree and clone.children[0].parent is clone
    del tree
    assert leaf.parent is None  # a node does not keep its ancestors alive


# -- (b) an idle channel costs nothing --------------------------------------------------


def _net_calls_of_one_emit(stream: Stream) -> int:
    """Calls made into, or from inside, ``repro/net/`` by one ``stream.emit``."""
    calls = 0

    def count(frame, event, argument) -> None:
        nonlocal calls
        if event in ("call", "c_call") and "/repro/net/" in frame.f_code.co_filename:
            calls += 1

    item = alert(1)
    stream.emit(item)
    sys.setprofile(count)
    try:
        stream.emit(item)
    finally:
        sys.setprofile(None)
    return calls


def test_a_channel_nobody_subscribed_to_costs_nothing():
    network = SimNetwork(seed=3)
    publisher, subscriber = Peer("pub", network), Peer("sub", network)
    stream = publisher.create_stream("alerts")
    channel = publisher.publish_channel("X", stream)
    assert _net_calls_of_one_emit(stream) == 0
    proxy = subscriber.subscribe_channel("pub", "X")
    seen = collect(proxy)
    network.run()
    assert _net_calls_of_one_emit(stream) > 1
    network.run()
    subscriber.channels.unsubscribe_remote("pub", "X")
    network.run()
    assert len(seen) == 2 and not channel.subscribers
    assert _net_calls_of_one_emit(stream) == 0
    stream.emit_many([alert(2), alert(3)])  # the batch form reaches no forwarder either
    stream.close()
    assert network.run() == 0


# -- (c) the valve is the delivery stream ---------------------------------------------


class TestValveIsTheDeliveryStream:
    def test_handle_delivers_on_the_valve(self):
        _, _, handles, _ = fanout(1)
        valve = handles[0].delivery_stream
        assert isinstance(valve, DeliveryValve)
        assert valve.source is handles[0].output_stream
        assert valve.qualified_id == "s0.delivery@sub0"

    def test_one_call_per_item_keeps_every_account(self):
        source = Stream("src", "p")
        valve = valve_on(source)
        valve.keep_history = True
        seen, also = collect(valve), collect(valve)
        source.emit(alert(1))
        assert seen == also == valve.history == [alert(1)]
        assert valve.items_delivered == 1 and valve.stats.items == 1
        assert source.stats.items == 1  # bytes are a link account: see the total_bytes tests below
        assert valve.qualified_id == "src.delivery@p"

    def test_emit_bypasses_the_pause_gate_and_counts_nothing(self):
        """What ``resume()`` relies on: it counts each retained item in
        ``items_delivered`` itself and flushes it through ``emit``."""
        valve = valve_on(Stream("src"))
        seen = collect(valve)
        valve.pause()
        valve.emit(alert(1))
        assert len(seen) == 1 and valve.items_delivered == 0 and valve.pending_count == 0

    def test_closed_valve_refuses_items(self):
        source = Stream("src")
        valve = valve_on(source)
        ended = []
        valve.subscribe(lambda item: ended.append(item is EOS))
        valve.disconnect()
        valve.close()
        assert ended == [True] and valve.closed
        source.emit(alert(1))  # disconnected: not even offered
        with pytest.raises(StreamClosedError):
            valve.emit(alert(1))
        with pytest.raises(TypeError):
            valve_on(Stream("other")).emit("not an element")
        attached = valve_on(source)
        attached.close()
        with pytest.raises(StreamClosedError):
            source.emit(alert(2))
        assert attached.items_delivered == 0

    def test_a_connect_replaces_the_source(self):
        first, second = Stream("first"), Stream("second")
        valve = valve_on(first)
        seen = collect(valve)
        valve.connect(second)
        first.emit(alert(1))
        second.emit(alert(2))
        assert seen == [alert(2)] and valve.source is second
        assert first.subscriber_count == 0
        valve.disconnect()
        valve.disconnect()  # idempotent
        second.close()
        assert not valve.closed and valve.source is None

    def test_callback_attached_before_a_recovery_fires_after_it(self):
        system = P2PMSystem(seed=1)
        sources = [system.add_peer(f"s{i}").peer_id for i in range(3)]
        peers = " ".join(f"<p>{source}</p>" for source in sources)
        handle = system.add_peer("monitor").subscribe(
            f'for $x in {CHAOS_FUNCTION}({peers}) where $x.kind = "chaos" return <seen>{{$x.n}}</seen>',
            sub_id="chaos",
        )
        system.run()
        received = []
        handle.on_result(received.append)
        before = handle.delivery_stream
        system.fail_peer(handle.plan.find_all(UNION)[0].placement)
        system.run()
        after = handle.delivery_stream
        assert after is before and after.source is handle.output_stream and not after.closed
        for source in sources:
            if system.is_alive(source):
                system.peer(source).alerter(CHAOS_FUNCTION).emit_numbered(4)
        system.run()
        assert received and after.items_delivered == len(received)


class TestResumeWhileRepaused:
    """A subscriber that pauses from inside the resume flush stops the flush."""

    def test_on_the_valve(self):
        source = Stream("src")
        valve = valve_on(source)
        seen = []

        def pause_on_first(item) -> None:
            if item is not EOS:
                seen.append(item.attrib["n"])
                valve.pause()

        unsubscribe = valve.subscribe(pause_on_first)
        valve.pause()
        for n in range(3):
            source.emit(alert(n))
        source.close()
        valve.resume()
        assert seen == ["0"] and valve.paused and valve.pending_count == 2
        assert valve.items_delivered == 1 and not valve.closed
        valve.resume()
        assert seen == ["0", "1"] and valve.pending_count == 1 and not valve.closed
        unsubscribe()
        valve.resume()
        assert valve.pending_count == 0 and valve.closed  # the pending EOS went last

    def test_through_the_handle(self):
        system, alerter, handles, _ = fanout(1)
        handle = handles[0]
        seen = []

        def pause_on_first(item) -> None:
            seen.append(item.find("n").text)
            if len(seen) == 1:
                handle.pause()

        handle.on_result(pause_on_first)
        handle.pause()
        for n in (1, 2, 3):
            alerter.emit_numbered(n)
        system.run()
        handle.resume()
        assert seen == ["1"] and handle.status == "paused"
        assert handle.stats()["items_pending"] == 2
        handle.resume()
        assert seen == ["1", "2", "3"] and handle.status == "deployed"


# -- (d) the contiguous floor -------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_every_sequence_number_is_accepted_exactly_once(data, n):
    order = data.draw(st.permutations(list(range(n)) * 2))
    proxy = RemoteChannelProxy("pub", "X", "sub")
    accepted = [seq for seq in order if proxy.accept_seq(seq)]
    assert sorted(accepted) == list(range(n))
    first_seen = list(dict.fromkeys(order))
    assert accepted == first_seen
    # all of 0..n-1 arrived: the floor covers them and nothing is parked
    assert proxy.seen_seqs == set() and proxy._seq_floor == n - 1


def test_an_in_order_channel_holds_no_set():
    network = SimNetwork(seed=3)
    publisher, subscriber = Peer("pub", network), Peer("sub", network)
    stream = publisher.create_stream("alerts")
    publisher.publish_channel("X", stream)
    proxy = subscriber.subscribe_channel("pub", "X")
    seen = collect(proxy)
    network.run()
    stream.emit_many([alert(n) for n in range(30)])
    network.run()
    assert len(seen) == 30 and proxy.seen_seqs == set() and proxy._seq_floor == 29
    assert proxy.accept_seq(29) is False and proxy.accept_seq(31) is True
    assert proxy.seen_seqs == {31}  # parked behind the gap at 30
    assert proxy.accept_seq(30) is True and proxy.seen_seqs == set()


def test_a_gap_older_than_the_window_is_given_up_on():
    proxy = RemoteChannelProxy("pub", "X", "sub")
    window = RemoteChannelProxy.SEQ_WINDOW
    for seq in range(1, window + 2):  # 0 never arrives
        assert proxy.accept_seq(seq) is True
    assert proxy.seen_seqs == set() and proxy._seq_floor == window + 1
    assert proxy.accept_seq(0) is False  # beyond the window: the safe direction


# -- (e) wrapper weights and byte totals --------------------------------------------


uncached_weight = test_e2e_fastpath.TestWeightCache().uncached_weight


def test_wrapper_weights_are_what_a_walk_would_compute():
    network = SimNetwork(seed=3)
    network.trace_enabled = True
    publisher = Peer("publisher.example", network)
    early, late = Peer("early", network), Peer("late", network)
    stream = publisher.create_stream("alerts")
    publisher.publish_channel("long-channel-name", stream)
    early.subscribe_channel("publisher.example", "long-channel-name")
    network.run()
    for n in range(12):  # one- and two-digit sequence numbers
        stream.emit(Element("alert", {"n": str(n)}, [Element("body", text="x" * n)]))
    late.subscribe_channel("publisher.example", "long-channel-name")  # a diverged counter
    network.run()
    stream.emit_many([alert(n) for n in range(3)])
    network.run()
    items = [m for m in network.trace if m.kind == "channel.item"]
    frames = {m.destination: m.payload for m in network.trace if m.kind == "channel.items"}
    # the three-item burst crosses each of the two links as one frame, not three messages
    assert len(items) == 12 and set(frames) == {"early", "late"}
    assert frames["late"].attrib["seq"] == "0" and frames["early"].attrib["seq"] == "12"
    assert [len(frame.children) for frame in frames.values()] == [3, 3]
    for message in network.trace:  # the subscribe requests too
        assert message.size == message.payload.weight() == uncached_weight(message.payload)
    assert network.stats.total_bytes == sum(m.size for m in network.trace)


def test_byte_totals_are_the_parents():
    """A 40-alert burst and 12 single alerts down a chain of three links.  At
    9603535 the same script printed 150 messages / 15 896 bytes: the burst was
    37 matching items on each link; it is one frame per link now."""
    system, alerter, _, counts = fanout()
    alerter.output.emit_many([alert(n % 20) for n in range(40)])
    for n in range(12):
        alerter.emit_numbered(n)
    system.run()
    stats = system.network.stats
    assert counts == [49, 49, 49]
    assert (stats.total_messages, stats.total_bytes) == (39, 7974)
    assert stats.per_peer_sent == {"src": 12, "sub0": 13, "sub1": 13, "sub2": 1}
    assert stats.busiest_peer() == "sub1"


def test_byte_totals_item_by_item_are_the_parents():
    """The same 52 alerts published one by one: what 9603535 printed."""
    system, alerter, _, counts = fanout()
    for n in range(40):
        alerter.output.emit(alert(n % 20))
    for n in range(12):
        alerter.emit_numbered(n)
    system.run()
    stats = system.network.stats
    assert counts == [49, 49, 49]
    assert (stats.total_messages, stats.total_bytes) == (150, 15896)
    assert stats.per_peer_sent == {"src": 49, "sub0": 50, "sub1": 50, "sub2": 1}
    assert stats.busiest_peer() == "sub1"


def test_send_many_counts_only_what_it_scheduled():
    """A down destination is dropped by ``send`` and ``send_many`` alike."""

    def build() -> SimNetwork:
        network = SimNetwork(seed=1)
        for name in ("a", "b", "c"):
            Peer(name, network)
        network.fail_peer("c")
        return network

    loop, burst = build(), build()
    for destination in ("b", "c"):
        loop.send("a", destination, "t.msg", alert(1))
    burst.send_many("a", [(destination, "t.msg", alert(1)) for destination in ("b", "c")])
    assert burst.stats.snapshot() == loop.stats.snapshot() == {"messages": 1, "bytes": alert(1).weight()}
    assert burst.stats.per_peer_received == loop.stats.per_peer_received == {"b": 1}
