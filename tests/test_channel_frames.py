"""A burst stays a burst: frames on the wire, batch entries on the proxy and the valve.

``Stream.emit_many`` publishes one list, and whatever received a list hands
on a list: a channel forwards a burst to each subscriber as one
``channel.items`` frame, the proxy hands the frame's children to its
subscribers' batch entries, the valve takes a burst in one call.  The rule
all of it is held to: a burst delivers what a loop of ``emit`` delivers.

At the parent commit (21d97d4) the departed-subscriber case, the
once-per-link guard and everything that looks for a ``channel.items`` message
fail; the single-alert call budget is the parent's own number.
"""

import gc
import sys

import pytest
import test_e2e_fastpath  # its uncached weight walk is the reference here too
from hypothesis import given, settings
from hypothesis import strategies as st
from test_delivery_tail import alert, fanout, valve_on

from repro.net.channel import MSG_ITEM, MSG_ITEMS, _wrapper
from repro.net.errors import UnknownPeerError
from repro.net.faults import FaultModel
from repro.net.peer import Peer
from repro.net.simnet import SimNetwork
from repro.streams import EOS, Stream, StreamClosedError
from repro.streams.stream import collect
from repro.xmlmodel.tree import Element

uncached_weight = test_e2e_fastpath.TestWeightCache().uncached_weight
ITEM_KINDS = (MSG_ITEM, MSG_ITEMS)


def numbers(items) -> list[int]:
    return [int(item.attrib["n"]) for item in items]


# -- the relay chain: a burst is a loop of emits ----------------------------------


class Chain:
    """``pub`` publishes ``feed``; the first subscriber of every hop republishes
    its proxy as ``feed`` for the next hop (a replica, as stream reuse builds
    them) and also consumes that replica through the local shortcut."""

    def __init__(self, hops: list[int], fault_model: FaultModel | None = None, reliable: bool = False) -> None:
        self.network = SimNetwork(seed=5, fault_model=fault_model)
        self.reliable = reliable
        self.peers: dict[str, Peer] = {}
        self.sinks: dict[str, list[Element]] = {}
        self.proxies: dict[str, Stream] = {}
        self.joined_at: dict[str, int] = {}
        self.emitted = 0
        root = self._peer("pub")
        self.stream = root.create_stream("feed")
        root.publish_channel("feed", self.stream)
        self.providers = ["pub"]
        self._tap("pub/local", root.subscribe_channel("pub", "feed"))
        for depth, width in enumerate(hops):
            for _ in range(width):
                self.join(depth)

    def _peer(self, name: str) -> Peer:
        peer = self.peers[name] = Peer(name, self.network)
        peer.channels.reliable = self.reliable
        peer.log_inbox = True
        return peer

    def _tap(self, name: str, proxy: Stream) -> None:
        self.proxies[name] = proxy
        self.sinks[name] = collect(proxy)
        self.joined_at[name] = self.emitted

    def join(self, depth: int) -> None:
        """A new subscriber at ``depth``, fenced by runs so that it receives
        exactly what is emitted from now on."""
        self.network.run()
        name = f"h{depth}.{sum(key.startswith(f'h{depth}.') for key in self.peers)}"
        peer = self._peer(name)
        proxy = peer.subscribe_channel(self.providers[depth], "feed")
        self._tap(name, proxy)
        if depth + 1 == len(self.providers):
            peer.publish_channel("feed", proxy)
            self.providers.append(name)
            self._tap(f"{name}/local", peer.subscribe_channel(name, "feed"))
        self.network.run()

    def fresh(self, count: int) -> list[Element]:
        self.emitted += count
        return [alert(n) for n in range(self.emitted - count, self.emitted)]

    def play(self, script: list[tuple], framed: bool) -> "Chain":
        for op, argument in script:
            if op == "join":
                self.join(min(argument, len(self.providers) - 1))
            elif op == "run":
                self.network.run()
            elif op == "burst" and framed:
                self.stream.emit_many(self.fresh(argument))
            else:  # a single emit, or the burst as the loop of emits it must equal
                for item in self.fresh(argument if op == "burst" else 1):
                    self.stream.emit(item)
        self.network.run()
        return self

    def item_messages(self) -> list:
        return [m for peer in self.peers.values() for m in peer.inbox_log if m.kind in ITEM_KINDS]

    def expected(self, name: str) -> list[int]:
        return list(range(self.joined_at[name], self.emitted))


SCRIPTS = st.lists(
    st.one_of(
        st.tuples(st.just("emit"), st.just(1)),
        st.tuples(st.just("burst"), st.integers(1, 60)),
        st.tuples(st.just("join"), st.integers(0, 5)),
        st.tuples(st.just("run"), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)
HOPS = st.lists(st.integers(1, 5), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(hops=HOPS, script=SCRIPTS)
def test_a_burst_is_a_loop_of_emits_on_a_perfect_network(hops, script):
    framed = Chain(hops).play(script, framed=True)
    looped = Chain(hops).play(script, framed=False)
    for name, sink in framed.sinks.items():
        assert numbers(sink) == numbers(looped.sinks[name]) == framed.expected(name), name
    for name, proxy in framed.proxies.items():
        assert proxy.seen_seqs == set() and proxy.duplicates_dropped == 0, name
        assert proxy.stats.items == len(framed.sinks[name])
    # counters consistent with what was sent: the twins agree on every one
    for name, peer in framed.peers.items():
        if peer.channels.publishes("feed"):
            assert peer.channels.published("feed").next_seq == looped.peers[name].channels.published("feed").next_seq
    messages = framed.item_messages()
    for message in messages:
        framed_kind = MSG_ITEMS if len(message.payload.children) > 1 else MSG_ITEM
        assert message.kind == framed_kind
        assert message.size == message.payload.weight() == uncached_weight(message.payload)
    assert len(messages) <= len(looped.item_messages())
    everything = [m for peer in framed.peers.values() for m in peer.inbox_log]
    assert framed.network.stats.total_bytes == sum(m.size for m in everything)
    assert framed.network.stats.total_bytes <= looped.network.stats.total_bytes


@settings(max_examples=40, deadline=None)
@given(
    hops=HOPS,
    script=SCRIPTS,
    duplication=st.sampled_from([0.0, 0.3, 0.6]),
    jitter=st.sampled_from([0.0, 0.002, 0.02]),
)
def test_frames_stay_exactly_once_under_duplication_and_reordering(hops, script, duplication, jitter):
    chain = Chain(hops, FaultModel(duplication_rate=duplication, jitter=jitter)).play(script, framed=True)
    for name, sink in chain.sinks.items():
        assert sorted(numbers(sink)) == chain.expected(name), name
    for name, peer in chain.peers.items():
        arrived = sum(len(m.payload.children) for m in peer.inbox_log if m.kind in ITEM_KINDS)
        if name in chain.proxies:  # every child is delivered once or counted as a duplicate
            proxy = chain.proxies[name]
            assert proxy.stats.items + proxy.duplicates_dropped == arrived, name
            assert proxy.seen_seqs == set()  # everything arrived in the end: nothing stays parked


def test_a_partially_seen_frame_delivers_only_what_is_new():
    network = SimNetwork(seed=1)
    publisher, subscriber = Peer("pub", network), Peer("sub", network)
    channel = publisher.publish_channel("X", publisher.create_stream("s"))
    proxy = subscriber.subscribe_channel("pub", "X")
    seen = collect(proxy)
    network.run()
    for first, count in ((2, 3), (0, 4), (3, 3), (0, 6)):  # ahead of a gap, overlapping, overlapping, stale
        frame = _wrapper("channelItems", channel, str(first), [alert(n) for n in range(first, first + count)])
        network.send("pub", "sub", MSG_ITEMS, frame)
        network.run()
    assert numbers(seen) == [2, 3, 4, 0, 1, 5]
    assert proxy.duplicates_dropped == 16 - 6 and proxy.seen_seqs == set() and proxy._seq_floor == 5


def test_a_one_item_burst_is_an_emit_on_the_wire():
    def trace(publish) -> list[tuple]:
        network = SimNetwork(seed=2)
        network.trace_enabled = True
        publisher, subscriber = Peer("pub", network), Peer("sub", network)
        stream = publisher.create_stream("s")
        publisher.publish_channel("X", stream)
        seen = collect(subscriber.subscribe_channel("pub", "X"))
        network.run()
        publish(stream)
        network.run()
        assert numbers(seen) == [7]
        return [(m.kind, m.size, m.payload.tag, m.payload.attrib.get("seq")) for m in network.trace]

    burst = trace(lambda stream: stream.emit_many([alert(7)]))
    assert burst == trace(lambda stream: stream.emit(alert(7)))
    assert burst[-1][0] == MSG_ITEM and burst[-1][2:] == ("channelItem", "0")


def test_a_reliable_registry_keeps_one_message_and_one_outbox_entry_per_item():
    chain = Chain([2], reliable=True)
    chain.network.trace_enabled = True
    chain.stream.emit_many(chain.fresh(5))
    outbox = chain.peers["pub"].channels.published("feed").outbox
    assert {subscriber: sorted(entries) for subscriber, entries in outbox.items()} == {
        "h0.0": [0, 1, 2, 3, 4],
        "h0.1": [0, 1, 2, 3, 4],
    }
    chain.network.run()
    sent = [m for m in chain.network.trace if m.source == "pub" and m.kind in ITEM_KINDS]
    assert [m.kind for m in sent] == [MSG_ITEM] * 10
    assert [(m.destination, m.payload.attrib["seq"]) for m in sent] == [
        (subscriber, str(seq)) for seq in range(5) for subscriber in ("h0.0", "h0.1")
    ]
    assert outbox == {}  # every item was acked on its own number
    for name in ("h0.0", "h0.1", "h0.0/local", "pub/local"):
        assert numbers(chain.sinks[name]) == [0, 1, 2, 3, 4]


def test_a_local_consumer_receives_a_burst_as_one_burst():
    publisher = Peer("pub", SimNetwork(seed=1))
    stream = publisher.create_stream("s")
    publisher.publish_channel("X", stream)
    proxy = publisher.subscribe_channel("pub", "X")
    bursts, singles = [], []
    taker = singles.append
    taker_with_batch = lambda item: singles.append(item)  # noqa: E731 - needs an attribute
    taker_with_batch.batch = bursts.append
    proxy.subscribe(taker_with_batch)
    proxy.subscribe(taker)
    stream.emit_many([alert(1), alert(2)])
    stream.emit(alert(3))
    assert [numbers(burst) for burst in bursts] == [[1, 2]]
    assert numbers(singles) == [1, 2, 3, 3]
    stream.close()
    assert proxy.closed and singles[-2:] == [EOS, EOS]


# -- a subscriber that left the network ----------------------------------------------


@pytest.mark.parametrize("burst", [False, True], ids=["item", "frame"])
def test_a_departed_subscriber_is_dropped_and_the_rest_is_served(burst):
    network = SimNetwork(seed=4)
    publisher = Peer("pub", network)
    stream = publisher.create_stream("s")
    channel = publisher.publish_channel("X", stream)
    sinks = {name: collect(Peer(name, network).subscribe_channel("pub", "X")) for name in ("a", "b", "c")}
    network.run()
    stream.emit(alert(0))
    network.run()
    network.unregister("b")  # leaves without unsubscribing
    if burst:
        stream.emit_many([alert(1), alert(2), alert(3)])
    else:
        stream.emit(alert(1))
    network.run()
    last = 3 if burst else 1
    assert numbers(sinks["a"]) == numbers(sinks["c"]) == list(range(last + 1))
    assert numbers(sinks["b"]) == [0]
    assert channel.subscribers == {"a", "c"}
    assert channel.next_seq["a"] == channel.next_seq["c"] == last + 1
    stream.emit(alert(9))  # and the channel goes on without it
    network.run()
    assert numbers(sinks["a"])[-1] == numbers(sinks["c"])[-1] == 9
    with pytest.raises(UnknownPeerError):  # the network itself still refuses
        network.send_many("pub", [("a", "t.msg", alert(1)), ("b", "t.msg", alert(1))])
    assert network.pending_messages == 0  # and had scheduled nothing when it did


# -- the valve takes a burst in one call ---------------------------------------------


VALVE_SCRIPTS = st.lists(
    st.one_of(
        st.tuples(st.just("emit"), st.just(1)),
        st.tuples(st.just("burst"), st.integers(1, 60)),
        st.tuples(st.just("pause"), st.just(0)),
        st.tuples(st.just("resume"), st.just(0)),
    ),
    min_size=1,
    max_size=10,
)


def _play_valve(script, pauses_at: frozenset, resumes_at: frozenset, framed: bool, history: bool):
    source = Stream("src", "p")
    valve = valve_on(source, max_pause_buffer=50)
    valve.keep_history = history
    first, second = [], []

    def from_a_callback(item) -> None:
        if item is EOS:
            return
        n = int(item.attrib["n"])
        first.append(n)
        if n in pauses_at:
            valve.pause()
        if n in resumes_at:  # pause, resume and pause again from inside one delivery
            valve.resume()
            valve.pause()

    valve.subscribe(from_a_callback)
    valve.subscribe(lambda item: second.append(item))
    emitted = 0
    for op, count in script:
        if op == "pause":
            valve.pause()
        elif op == "resume":
            valve.resume()
        else:
            items = [alert(n) for n in range(emitted, emitted + count)]
            emitted += count
            if op == "burst" and framed:
                source.emit_many(items)
            else:
                for item in items:
                    source.emit(item)
    state = (valve.items_delivered, valve.stats.items, valve.pending_count, valve.dropped_while_paused,
             valve.paused, numbers(valve.history))
    source.close()
    valve.resume()
    return first, numbers(item for item in second if item is not EOS), state, second[-1:] == [EOS]


@settings(max_examples=150, deadline=None)
@given(
    script=VALVE_SCRIPTS,
    pauses_at=st.frozensets(st.integers(0, 120), max_size=6),
    resumes_at=st.frozensets(st.integers(0, 120), max_size=3),
    history=st.booleans(),
)
def test_the_valve_takes_a_burst_as_it_takes_a_loop_of_items(script, pauses_at, resumes_at, history):
    framed = _play_valve(script, pauses_at, resumes_at, framed=True, history=history)
    looped = _play_valve(script, pauses_at, resumes_at, framed=False, history=history)
    assert framed == looped


def test_a_cancel_from_a_callback_stops_the_burst_without_raising():
    source = Stream("src")
    valve, other = valve_on(source), valve_on(source)
    seen, unaffected = [], collect(other)

    def cancel_on_second(item) -> None:
        if item is not EOS:
            seen.append(item)
            if len(seen) == 2:
                valve.disconnect()
                valve.close()

    valve.subscribe(cancel_on_second)
    source.emit_many([alert(n) for n in range(5)])
    assert numbers(seen) == [0, 1] and valve.items_delivered == 2 and valve.closed
    assert numbers(unaffected) == [0, 1, 2, 3, 4]  # the stream's other subscription is served
    closed = valve_on(source)
    closed.close()  # closed but still subscribed: refuses, item or burst
    for publish in (lambda: source.emit(alert(5)), lambda: source.emit_many([alert(5), alert(6)])):
        with pytest.raises(StreamClosedError):
            publish()


# -- call guards -------------------------------------------------------------------------


def _profile(action, watch: str | None = None) -> tuple[int, int]:
    """Calls made by ``action`` (Python and C), and entries into ``watch``."""
    calls = entries = 0

    def count(frame, event, argument) -> None:
        nonlocal calls, entries
        if event == "call" or event == "c_call":
            calls += 1
            if event == "call" and frame.f_code.co_name == watch:
                entries += 1

    # a collection that falls into the counted action runs `gc.callbacks`
    # (hypothesis registers one), and they would be counted as its calls
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        action()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, entries


#: what the same measurement read at the parent commit (21d97d4): three
#: deliveries of one single alert down the three-link chain of ``fanout()``
PARENT_CALLS_OF_ONE_SINGLE_ALERT = 254


def test_the_single_alert_path_gains_no_call():
    system, alerter, _, counts = fanout()
    alerter.emit_numbered(5)
    system.run()

    def one_alert() -> None:
        alerter.emit_numbered(6)
        system.run()

    calls, _ = _profile(one_alert)
    assert counts == [2, 2, 2]  # the warm-up alert and the counted one
    assert calls <= PARENT_CALLS_OF_ONE_SINGLE_ALERT


def test_a_burst_enters_the_receive_handler_once_per_link():
    system, alerter, _, counts = fanout()
    alerter.emit_numbered(5)
    system.run()

    def one_burst() -> None:
        alerter.output.emit_many([alert(n % 20) for n in range(40)])
        system.run()

    _, entries = _profile(one_burst, watch="_on_item")
    assert counts == [39, 39, 39]  # the warm-up alert, and 38 of the 40 are above the threshold
    assert entries == 3  # src -> sub0 -> sub1 -> sub2, not 38 per link
