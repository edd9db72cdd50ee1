"""A reliable channel sends frames: one message, outbox entry and ack per burst per subscriber.

A reliable registry (detector-mode systems) used to split every burst into
one ``channel.item`` message per item, each with its own outbox entry, ack
and retransmission, and to replay a takeover claim one item at a time.
``PerItemRegistry`` below is a frozen copy of that code; the registry now
sends the ``channel.items`` frame a non-reliable registry sends, holds it
as one outbox entry, and replays a claim as one forward.  Generated relay
chains -- bursts, single emits, late joins, subscriber deaths followed by
a takeover claim, same-peer adoptions, faults applied only between fenced
joins -- hold the two to the same deliveries, exactly once.

Messages and acks are compared where they are determined by the script:
once the two copies send different numbers of messages they draw different
faults from the network's generator, so under loss only first transmissions
are compared, and under duplication acks are not.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_channel_frames import ITEM_KINDS, Chain, numbers, record_arrivals
from test_delivery_tail import alert

import repro.net.peer as peer_module
from repro.net.channel import MSG_ITEM, MSG_ITEMS, ChannelRegistry, OutboxEntry, _wrapper
from repro.net.errors import UnknownPeerError
from repro.net.faults import FaultModel
from repro.net.peer import Peer
from repro.net.simnet import SimNetwork
from repro.streams.stream import collect
from repro.xmlmodel.tree import Element

ITEM_COUNTERS = ("items_retransmitted", "items_replayed", "items_shed")


class PerItemRegistry(ChannelRegistry):
    """The reliable registry as it was before frames: one message per item."""

    def _forward_many(self, channel, items):
        if self.reliable:  # the outbox, acks and retransmission are per sequence number
            for item in items:
                self._forward_batch(channel, [item])
        else:
            self._forward_batch(channel, items, len(items))

    def _forward_batch(self, channel, items, count=1):
        subscribers = channel.sorted_subscribers()
        if not subscribers or not items:
            return
        weight = channel._wrapper_overhead
        if weight is None:
            weight = channel._wrapper_overhead = _wrapper("channelItem", channel, "", []).weight()
        kind, tag = MSG_ITEM, "channelItem"
        if count > 1:
            kind, tag = MSG_ITEMS, "channelItems"
            weight += 2
        for item in items:
            weight += item._weight or item.weight()
        shared = list(items)
        next_seq, reliable = channel.next_seq, self.reliable
        wrappers: dict[int, Element] = {}
        sends: list[tuple[str, str, Element]] = []
        for subscriber in subscribers:
            seq = next_seq.get(subscriber, 0)
            next_seq[subscriber] = seq + count
            wrapper = wrappers.get(seq)
            if wrapper is None:
                seq_text = str(seq)
                wrapper = wrappers[seq] = _wrapper(tag, channel, seq_text, shared, weight + len(seq_text))
            if reliable:
                self._record_unacked(channel, subscriber, seq, wrapper)
                if subscriber in channel.dead:
                    continue
            sends.append((subscriber, kind, wrapper))
        network = self._peer.network
        try:
            network.send_many(self._peer.peer_id, sends)
        except UnknownPeerError:
            for subscriber in subscribers:
                if not network.has_peer(subscriber):
                    self.drop_subscriber(channel.channel_id, subscriber)
            network.send_many(self._peer.peer_id, [send for send in sends if network.has_peer(send[0])])

    def _record_unacked(self, channel, subscriber, seq, wrapper):
        bucket = channel.outbox.get(subscriber)
        if bucket is None:
            bucket = channel.outbox[subscriber] = {}
        bucket[seq] = OutboxEntry(wrapper)
        if len(bucket) > self.OUTBOX_LIMIT:
            bucket.pop(min(bucket))
            self._peer.network.stats.items_shed += 1

    def _on_ack(self, message):
        attrib = message.payload.attrib
        channel = self._published.get(attrib["channelId"])
        if channel is None:
            return
        bucket = channel.outbox.get(message.source)
        if bucket is not None:
            bucket.pop(int(attrib["seq"]), None)
            if not bucket:
                channel.outbox.pop(message.source, None)

    def retransmit_tick(self):
        if not self.reliable:
            return
        network = self._peer.network
        stats = network.stats
        if self._pending_adoptions:
            still_pending: list[list] = []
            for entry in self._pending_adoptions:
                stream, payloads, rounds = entry
                channel = self._published.get(stream.stream_id)
                if stream.closed or channel is None or channel.stream is not stream:
                    stats.items_shed += len(payloads)
                    continue
                entry[2] = rounds + 1
                if entry[2] == 1:
                    still_pending.append(entry)
                    continue
                has_local_consumer = (self._peer.peer_id, stream.stream_id) in self._proxies
                if channel.subscribers or has_local_consumer:
                    stream.emit_many(payloads)
                    stats.items_replayed += len(payloads)
                    continue
                if entry[2] > self.RETRY_LIMIT:
                    stats.items_shed += len(payloads)
                else:
                    still_pending.append(entry)
            self._pending_adoptions = still_pending
        if self._pending_replays:
            replays, self._pending_replays = self._pending_replays, []
            for channel, subscriber, payloads in replays:
                if self._published.get(channel.channel_id) is not channel:
                    continue
                if subscriber == self._peer.peer_id:
                    proxy = self._proxies.get((self._peer.peer_id, channel.channel_id))
                    if proxy is not None and not proxy.closed:
                        for sent in payloads:
                            proxy.push(sent[0])
                        stats.items_replayed += len(payloads)
                elif subscriber in channel.subscribers:
                    self._replay_to(channel, subscriber, payloads)
        for channel_id in sorted(self._published):
            channel = self._published[channel_id]
            outbox = channel.outbox
            if not outbox:
                continue
            sends: list[tuple[str, str, Element]] = []
            emptied: list[str] = []
            for subscriber in sorted(outbox):
                if subscriber in channel.dead:
                    continue
                entries = outbox[subscriber]
                expired = []
                for seq in sorted(entries):
                    entry = entries[seq]
                    entry.attempts += 1
                    if entry.attempts > self.RETRY_LIMIT:
                        expired.append(seq)
                        stats.items_shed += 1
                        continue
                    sends.append((subscriber, MSG_ITEM, entry.wrapper))
                    stats.items_retransmitted += 1
                for seq in expired:
                    del entries[seq]
                if not entries:
                    emptied.append(subscriber)
            for subscriber in emptied:
                outbox.pop(subscriber, None)
            if sends:
                network.send_many(self._peer.peer_id, sends)

    def _replay_to(self, channel, subscriber, payloads):
        next_seq = channel.next_seq
        sends: list[tuple[str, str, Element]] = []
        for sent in payloads:
            seq = next_seq.get(subscriber, 0)
            next_seq[subscriber] = seq + 1
            wrapper = _wrapper("channelItem", channel, str(seq), sent)
            self._record_unacked(channel, subscriber, seq, wrapper)
            sends.append((subscriber, MSG_ITEM, wrapper))
        self._peer.network.stats.items_replayed += len(sends)
        self._peer.network.send_many(self._peer.peer_id, sends)

    @staticmethod
    def _take_orphans(channel):
        payloads: dict[int, list[Element]] = {}
        for dead_subscriber in sorted(channel.dead):
            entries = channel.outbox.pop(dead_subscriber, {})
            for seq in sorted(entries):
                sent = entries[seq].wrapper.children
                payloads.setdefault(id(sent), sent)
            channel.remove_subscriber(dead_subscriber)
            channel.next_seq.pop(dead_subscriber, None)
        channel.dead.clear()
        return list(payloads.values())

    def adopt_orphans(self, old_channel_id, successor):
        channel = self._published.get(old_channel_id)
        if channel is None or not channel.dead:
            return 0
        payloads = self._take_orphans(channel)
        if payloads:
            self._pending_adoptions.append([successor, [sent[0] for sent in payloads], 0])
        return len(payloads)


def make_peer(registry: type[ChannelRegistry], name: str, network: SimNetwork) -> Peer:
    with mock.patch.object(peer_module, "ChannelRegistry", registry):
        peer = Peer(name, network)
    peer.channels.reliable = True
    return peer


# -- the relay chain, reliable, with deaths, takeovers and adoptions -------------------


class ReliableChain(Chain):
    """A :class:`Chain` of reliable registries.  Faults hold between joins only:
    a join, a kill and an adoption first heal the network and drain every
    outbox (:meth:`settle`), so that each starts from a fenced state."""

    registry: type[ChannelRegistry] = ChannelRegistry
    #: retransmission rounds the script may run under faults: fewer than
    #: RETRY_LIMIT, so nothing is shed before the network heals
    FAULTY_TICKS = 3

    def __init__(self, hops: list[int], faults: FaultModel) -> None:
        self.faults = faults
        self.provider_of: dict[str, str] = {}  # subscriber peer -> the provider it reads
        self.until: dict[str, int] = {}  # a sink's end: a victim's death, an adoption
        self.orphaned_since: dict[str, int] = {}  # provider -> first unclaimed death
        self.adoptions = 0
        super().__init__(hops, reliable=True)
        self.network.trace_enabled = True

    def _peer(self, name: str) -> Peer:
        peer = self.peers[name] = make_peer(self.registry, name, self.network)
        self.inboxes[name] = record_arrivals(peer)
        return peer

    def registries(self) -> list[ChannelRegistry]:
        return [self.peers[name].channels for name in sorted(self.peers)]

    def tick(self) -> None:
        for registry in self.registries():
            registry.retransmit_tick()
        self.network.run()

    def settled(self) -> bool:
        for registry in self.registries():
            if registry._pending_replays or registry._pending_adoptions:
                return False
            for channel_id in registry.published_ids:
                channel = registry.published(channel_id)
                if set(channel.outbox) - channel.dead:
                    return False
        return True

    def settle(self) -> None:
        """Heal the network and drain it with retransmission rounds: only the
        outboxes of dead subscribers stay, awaiting a claim."""
        self.network.set_fault_model(None)
        self.network.run()
        for _ in range(12):
            if self.settled():
                return
            self.tick()
        assert self.settled()

    def join(self, depth: int) -> None:
        self.settle()
        provider = self.providers[depth]
        super().join(depth)
        name = next(reversed(self.peers))
        self.provider_of[name] = provider
        if provider in self.orphaned_since:  # the subscribe claimed the dead readers' items
            self.joined_at[name] = self.orphaned_since.pop(provider)
        self.network.set_fault_model(self.faults)

    def kill(self, pick: int) -> None:
        """A live reader that relays nothing dies silently; its provider's
        failure detector confirms it."""
        candidates = [name for name in self.provider_of if name not in self.providers and name not in self.until]
        if not candidates:
            return
        self.settle()
        victim = candidates[pick % len(candidates)]
        self.network.fail_peer(victim)
        provider = self.provider_of[victim]
        self.peers[provider].channels.handle_peer_death(victim)
        self.until[victim] = self.emitted
        self.orphaned_since.setdefault(provider, self.emitted)
        self.network.set_fault_model(self.faults)

    def adopt(self, pick: int) -> None:
        """The provider of dead readers hands their items to a successor
        stream it publishes, which a fresh peer reads."""
        if not self.orphaned_since:
            return
        self.settle()
        provider = sorted(self.orphaned_since)[pick % len(self.orphaned_since)]
        host = self.peers[provider]
        self.adoptions += 1
        name = f"a{self.adoptions}"
        successor = host.create_stream(name)
        host.publish_channel(name, successor)
        self._tap(name, self._peer(name).subscribe_channel(provider, name))
        self.network.run()
        since = self.joined_at[name] = self.orphaned_since.pop(provider)
        assert host.channels.adopt_orphans("feed", successor) == self.emitted - since
        self.until[name] = self.emitted
        self.network.set_fault_model(self.faults)

    def play(self, script: list[tuple]) -> ReliableChain:
        faulty_ticks = 0
        for op, argument in script:
            if op == "join":
                self.join(min(argument, len(self.providers) - 1))
            elif op == "kill":
                self.kill(argument)
            elif op == "adopt":
                self.adopt(argument)
            elif op == "tick":
                if faulty_ticks < self.FAULTY_TICKS:
                    faulty_ticks += 1
                    self.tick()
            elif op == "run":
                self.network.run()
            elif op == "burst":
                self.stream.emit_many(self.fresh(argument))
            else:
                self.stream.emit(self.fresh(1)[0])
        for provider in sorted(self.orphaned_since, key=self.providers.index):
            self.join(self.providers.index(provider))  # the takeover claim
        self.settle()
        return self

    def expected(self, name: str) -> list[int]:
        return list(range(self.joined_at[name], self.until.get(name, self.emitted)))

    def item_messages(self) -> list:
        return [m for m in self.network.trace if m.kind in ITEM_KINDS]


class PerItemChain(ReliableChain):
    registry = PerItemRegistry


SCRIPTS = st.lists(
    st.one_of(
        st.tuples(st.just("emit"), st.just(1)),
        st.tuples(st.just("burst"), st.integers(1, 40)),
        st.tuples(st.just("join"), st.integers(0, 4)),
        st.tuples(st.just("kill"), st.integers(0, 7)),
        st.tuples(st.just("adopt"), st.integers(0, 3)),
        st.tuples(st.just("tick"), st.just(0)),
        st.tuples(st.just("run"), st.just(0)),
    ),
    min_size=1,
    max_size=14,
)
HOPS = st.lists(st.integers(1, 4), min_size=1, max_size=4)


@pytest.mark.parametrize("loss_rate", [0.0, 0.1, 0.3])
@settings(max_examples=50, deadline=None)
@given(
    hops=HOPS,
    script=SCRIPTS,
    duplication=st.sampled_from([0.0, 0.2]),
    jitter=st.sampled_from([0.0, 0.002]),
)
def test_frames_deliver_what_per_item_messages_delivered(loss_rate, hops, script, duplication, jitter):
    faults = FaultModel(loss_rate=loss_rate, duplication_rate=duplication, jitter=jitter)
    framed = ReliableChain(hops, faults).play(script)
    per_item = PerItemChain(hops, faults).play(script)
    for chain in (framed, per_item):
        for name, sink in chain.sinks.items():
            assert sorted(numbers(sink)) == chain.expected(name), name  # each expected item, exactly once
        for registry in chain.registries():
            for channel_id in registry.published_ids:
                assert registry.published(channel_id).outbox == {}, channel_id
    assert {name: sorted(numbers(sink)) for name, sink in framed.sinks.items()} == {
        name: sorted(numbers(sink)) for name, sink in per_item.sinks.items()
    }

    # the counters keep their item meaning; retransmissions follow the
    # loss draws, which differ as soon as the message counts do
    compared = ITEM_COUNTERS if loss_rate == 0 else ITEM_COUNTERS[1:]
    stats, per_item_stats = framed.network.stats, per_item.network.stats
    differing = {
        counter: (getattr(stats, counter), getattr(per_item_stats, counter))
        for counter in compared
        if getattr(stats, counter) != getattr(per_item_stats, counter)
    }
    assert not differing, f"item counters differ (framed, per item): {differing}"

    def first_sends(chain: ReliableChain) -> int:  # a retransmission re-sends its wrapper
        return len({(m.destination, id(m.payload)) for m in chain.item_messages()})

    assert first_sends(framed) <= first_sends(per_item)
    if loss_rate == 0:
        assert len(framed.item_messages()) <= len(per_item.item_messages())
        if duplication == 0:
            assert stats.acks_sent <= per_item_stats.acks_sent


# -- the outbox: bounded in items, a message at a time ------------------------------


def dead_reader(registry: type[ChannelRegistry] = ChannelRegistry, confirmed: bool = True):
    """``pub`` publishes ``X``, read by ``r0``, which has just died."""
    network = SimNetwork(seed=3)
    pub = make_peer(registry, "pub", network)
    stream = pub.create_stream("s")
    channel = pub.publish_channel("X", stream)
    make_peer(registry, "r0", network).subscribe_channel("pub", "X")
    network.run()
    network.fail_peer("r0")
    if confirmed:
        pub.channels.handle_peer_death("r0")
    return network, pub, stream, channel


def held(channel) -> list[int]:
    """Numbers of the items in ``r0``'s outbox."""
    entries = channel.outbox.get("r0", {})
    return [int(item.attrib["n"]) for seq in sorted(entries) for item in entries[seq].wrapper.children]


def test_the_outbox_sheds_whole_oldest_frames_beyond_its_item_bound():
    network, pub, stream, channel = dead_reader()
    assert pub.channels.OUTBOX_LIMIT == 1024
    stream.emit_many([alert(n) for n in range(600)])
    stream.emit_many([alert(n) for n in range(600, 1200)])
    assert sorted(channel.outbox["r0"]) == [600]  # the older frame went whole
    assert channel.outbox["r0"].items_held == 600
    assert network.stats.items_shed == 600
    assert held(channel) == list(range(600, 1200))


def test_the_newest_frame_is_kept_whole_past_the_bound():
    kept = {}
    for registry in (ChannelRegistry, PerItemRegistry):
        network, pub, stream, channel = dead_reader(registry)
        stream.emit_many([alert(n) for n in range(2000)])
        kept[registry] = (held(channel), network.stats.items_shed)
    assert kept[ChannelRegistry] == (list(range(2000)), 0)
    assert kept[PerItemRegistry] == (list(range(976, 2000)), 976)  # the newest 1 024 items
    assert set(kept[PerItemRegistry][0]) <= set(kept[ChannelRegistry][0])


def test_a_frame_shed_at_the_retry_limit_counts_all_of_its_items():
    network, pub, stream, channel = dead_reader(confirmed=False)  # down, never confirmed
    stream.emit_many([alert(n) for n in range(5)])
    network.run()
    limit = pub.channels.RETRY_LIMIT
    for _ in range(limit + 1):
        pub.channels.retransmit_tick()
        network.run()
    assert network.stats.items_retransmitted == 5 * limit
    assert network.stats.items_shed == 5
    assert channel.outbox == {}


def test_claim_and_adoption_return_item_counts():
    network, pub, stream, channel = dead_reader()
    stream.emit(alert(0))
    stream.emit_many([alert(1), alert(2), alert(3)])
    assert sorted(channel.outbox["r0"]) == [0, 1] and channel.outbox["r0"].items_held == 4
    assert pub.channels.claim_orphans(channel, "pub") == 4

    network, pub, stream, channel = dead_reader()
    stream.emit(alert(0))
    stream.emit_many([alert(1), alert(2), alert(3)])
    successor = pub.create_stream("X2")  # a successor is published under its stream's name
    pub.publish_channel("X2", successor)
    seen = collect(pub.subscribe_channel("pub", "X2"))
    assert pub.channels.adopt_orphans("X", successor) == 4
    pub.channels.retransmit_tick()  # an adoption waits one round
    pub.channels.retransmit_tick()
    assert numbers(seen) == [0, 1, 2, 3] and network.stats.items_replayed == 4


def test_a_frame_held_for_two_dead_readers_is_claimed_once():
    network, pub, stream, channel = dead_reader(confirmed=False)
    stream.emit(alert(0))  # r0 is one number ahead of the late reader
    make_peer(ChannelRegistry, "r1", network).subscribe_channel("pub", "X")
    network.run()
    network.fail_peer("r1")
    pub.channels.handle_peer_death("r0")
    pub.channels.handle_peer_death("r1")
    stream.emit_many([alert(1), alert(2), alert(3)])
    assert {reader: sorted(entries) for reader, entries in channel.outbox.items()} == {"r0": [0, 1], "r1": [0]}
    seen = collect(pub.subscribe_channel("pub", "X"))  # a local taker claims both outboxes
    pub.channels.retransmit_tick()
    assert numbers(seen) == [0, 1, 2, 3]
    assert network.stats.items_replayed == 4 and channel.outbox == {}


def test_a_takeover_replay_is_one_frame_to_the_taker():
    network, pub, stream, channel = dead_reader()
    stream.emit(alert(0))
    stream.emit_many([alert(1), alert(2), alert(3)])
    network.trace_enabled = True
    taker = make_peer(ChannelRegistry, "taker", network)
    seen = collect(taker.subscribe_channel("pub", "X"))
    network.run()
    pub.channels.retransmit_tick()
    network.run()
    sent = [m for m in network.trace if m.kind in ITEM_KINDS]
    # the sweep of the tick that flushes a replay re-sends it at once, as it
    # re-sent every replayed item before frames
    assert [(m.kind, m.destination, m.payload.attrib["seq"]) for m in sent] == [(MSG_ITEMS, "taker", "0")] * 2
    assert sent[0].payload is sent[1].payload and network.stats.items_retransmitted == 4
    assert numbers(seen) == [0, 1, 2, 3] and network.stats.items_replayed == 4
    assert channel.outbox == {}


def test_a_burst_to_many_readers_costs_a_message_and_an_ack_per_reader():
    totals = {}
    for registry in (ChannelRegistry, PerItemRegistry):
        network = SimNetwork(seed=1)
        pub = make_peer(registry, "pub", network)
        stream = pub.create_stream("s")
        pub.publish_channel("X", stream)
        sinks = [collect(make_peer(registry, f"r{i}", network).subscribe_channel("pub", "X")) for i in range(20)]
        network.run()
        before = (network.stats.total_messages, network.stats.total_bytes)
        stream.emit_many([alert(n) for n in range(50)])
        network.run()
        assert [numbers(sink) for sink in sinks] == [list(range(50))] * 20
        totals[registry] = (
            network.stats.total_messages - before[0],
            network.stats.total_bytes - before[1],
            network.stats.acks_sent,
        )
    assert totals[PerItemRegistry] == (2000, 161400, 1000)
    assert totals[ChannelRegistry] == (40, 50080, 20)  # a frame and its ack per reader
