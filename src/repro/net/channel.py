"""Channels: published streams that remote peers can subscribe to.

"A channel is defined by a tuple (peerID, streamID, subscribers), where
peerID is the peer that published this particular stream as a channel and
subscribers is the set of peers interested in it." (Section 3.2)

The publishing side is a :class:`Channel` attached to a local
:class:`~repro.streams.Stream`; every emitted item is forwarded over the
simulated network to each subscriber.  The subscribing side receives items
into a :class:`RemoteChannelProxy`, which is itself a local stream, so
downstream operators cannot tell a remote stream from a local one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, AbstractSet, Any, Callable

from repro.net.errors import UnknownChannelError, UnknownPeerError
from repro.streams.item import EOS
from repro.streams.stream import Stream, StreamClosedError
from repro.xmlmodel.tree import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.peer import Peer

#: Message kinds used by the channel machinery.
MSG_SUBSCRIBE = "channel.subscribe"
MSG_UNSUBSCRIBE = "channel.unsubscribe"
MSG_ITEM = "channel.item"
MSG_ITEMS = "channel.items"
MSG_EOS = "channel.eos"
MSG_ACK = "channel.ack"

#: what a channel's ``subscribers`` / ``dead`` and a proxy's ``seen_seqs``
#: hold until their first member: most never gain one
_EMPTY: frozenset = frozenset()


class OutboxEntry:
    """One unacknowledged message -- an item or a frame -- awaiting (re)transmission."""

    __slots__ = ("wrapper", "attempts")

    def __init__(self, wrapper: Element) -> None:
        self.wrapper = wrapper
        self.attempts = 0


class Outbox(dict[int, OutboxEntry]):
    """One subscriber's unacknowledged messages, keyed by the number of
    their first item; ``items_held`` counts the items they carry, so that
    dropping the outbox drops its count too."""

    items_held = 0

    def drop(self, seq: int) -> int:
        """Forget message ``seq`` (acked or shed); the items it carried."""
        entry = self.pop(seq, None)
        if entry is None:
            return 0
        count = len(entry.wrapper.children)
        self.items_held -= count
        return count


@dataclass(slots=True)
class Channel:
    """A stream published by ``peer_id`` under the name ``channel_id``."""

    peer_id: str
    channel_id: str
    stream: Stream
    #: the publishing registry, which builds the forwarder; None once withdrawn
    registry: ChannelRegistry | None = field(default=None, repr=False, compare=False)
    #: a set from the first subscriber on
    subscribers: AbstractSet[str] = _EMPTY
    #: the forwarder, built for the first subscriber and on the stream only
    #: while the channel has one (an idle channel costs nothing); None
    #: until then and once withdrawn
    forward: Callable[[Any], None] | None = field(default=None, repr=False)
    _detach: Callable[[], None] | None = field(default=None, repr=False, compare=False)  # takes it off again
    #: per-subscriber item sequence numbers (exactly-once deduplication)
    next_seq: dict[str, int] = field(default_factory=dict, repr=False)
    #: reliable mode: per-subscriber unacked messages
    outbox: dict[str, Outbox] = field(
        default_factory=dict, repr=False
    )
    #: reliable mode: subscribers the failure detector confirmed dead --
    #: retransmission skips them, their outboxes await a takeover claim; a
    #: set from the first on
    dead: AbstractSet[str] = field(default=_EMPTY, repr=False)
    #: memoised ``sorted(subscribers)``; fan-out is per item, (un)subscribes
    #: are rare, so the sort must not sit on the delivery path
    _sorted_cache: tuple[str, ...] | None = field(
        default=None, repr=False, compare=False
    )
    #: weight of a ``channelItem`` wrapper of this channel before its
    #: sequence digits and its payload are added; measured at the first
    #: fan-out, because most channels never gain a subscriber
    _wrapper_overhead: int | None = field(default=None, repr=False, compare=False)

    @property
    def qualified_id(self) -> str:
        return f"#{self.channel_id}@{self.peer_id}"

    def sorted_subscribers(self) -> tuple[str, ...]:
        """Deterministic fan-out order, cached until the next (un)subscribe."""
        cached = self._sorted_cache
        if cached is None:
            cached = self._sorted_cache = tuple(sorted(self.subscribers))
        return cached

    def add_subscriber(self, peer_id: str) -> None:
        subscribers = self.subscribers
        if peer_id not in subscribers:
            registry = self.registry
            if not (subscribers or registry is None or self.stream.closed):
                forward = self.forward
                if forward is None:
                    # the forwarder advertises a batch entry point, so
                    # Stream.emit_many hands a burst over in one call
                    forward = self.forward = partial(registry._forward, self)
                    forward.batch = partial(registry._forward_many, self)  # type: ignore[attr-defined]
                self._detach = self.stream.subscribe(forward)
            if type(subscribers) is set:
                subscribers.add(peer_id)
            else:
                self.subscribers = {peer_id}
            self._sorted_cache = None

    def remove_subscriber(self, peer_id: str) -> None:
        subscribers = self.subscribers
        if type(subscribers) is set and peer_id in subscribers:
            subscribers.discard(peer_id)
            self._sorted_cache = None
            if not subscribers and self._detach is not None:
                self._detach()
                self._detach = None

    def clear_subscribers(self) -> None:
        self.subscribers = _EMPTY
        self._sorted_cache = None

    def unsubscribe(self) -> None:
        """Withdraw the forwarder for good: the channel forwards nothing more."""
        detach, self._detach, self.forward, self.registry = self._detach, None, None, None
        if detach is not None:
            detach()


def _wrapper(tag: str, channel: Channel, seq_text: str, payload: list[Element], weight: int | None = None) -> Element:
    """The ``channelItem`` message of ``channel`` carrying ``payload``; tagged
    ``channelItems`` a frame, whose ``seq`` numbers the first of its children."""
    return Element.fast_new(
        tag,
        {"channelId": channel.channel_id, "publisher": channel.peer_id, "seq": seq_text},
        payload,
        weight=weight,
    )


class RemoteChannelProxy(Stream):
    """Local stream mirroring a channel published at another peer.

    Item messages carry per-subscriber sequence numbers, and the proxy drops
    any sequence number it has already delivered: a faulty network that
    duplicates messages (see :class:`repro.net.faults.FaultModel`) still
    yields exactly-once delivery into the local stream.  The floor is
    *contiguous*: every number up to it was delivered, ``seen_seqs`` parks
    only what arrived ahead of a gap, so an in-order channel holds no set.
    A frame is K consecutive numbers, each of them deduplicated on its own.
    """

    #: out-of-order window for duplicate detection; a gap this far behind the
    #: newest number seen is given up on and compacted into the floor (jitter
    #: reorders messages by bounded amounts, so the window bounds dedup memory)
    SEQ_WINDOW = 4096

    __slots__ = ("publisher_id", "channel_id", "seen_seqs", "_seq_floor", "duplicates_dropped")

    def __init__(self, publisher_id: str, channel_id: str, local_peer_id: str) -> None:
        super().__init__(stream_id=f"#{channel_id}", peer_id=local_peer_id)
        self.publisher_id = publisher_id
        self.channel_id = channel_id
        #: a set from the first number parked on
        self.seen_seqs: AbstractSet[int] = _EMPTY
        self._seq_floor = -1  # every seq <= floor counts as already seen
        self.duplicates_dropped = 0

    def accept_seq(self, seq: int) -> bool:
        """Record a sequence number; False when it was already delivered.

        Memory stays bounded: once more than ``SEQ_WINDOW`` numbers are
        parked, everything older than ``newest - SEQ_WINDOW`` collapses
        into the floor (a pathologically late copy beyond the window would
        be mistaken for a duplicate -- the safe direction for exactly-once).
        """
        seen = self.seen_seqs
        if seq <= self._seq_floor or seq in seen:
            return False
        floor = seq
        if seq != self._seq_floor + 1:
            if type(seen) is set:
                seen.add(seq)
            else:
                self.seen_seqs = seen = {seq}
            if len(seen) <= self.SEQ_WINDOW:
                return True
            floor = max(seen) - self.SEQ_WINDOW
            self.seen_seqs = seen = {s for s in seen if s > floor}
        if type(seen) is set:
            # the floor moves up, and on over the parked numbers that follow it
            while floor + 1 in seen:
                floor += 1
                seen.remove(floor)
        self._seq_floor = floor
        return True


class ChannelRegistry:
    """Per-peer registry of published channels and remote subscriptions.

    With ``reliable = True`` (set network-wide by detector-mode systems)
    item delivery becomes acknowledged: every sent message -- an item, or
    a burst's frame -- is held in the channel's per-subscriber outbox until
    the receiver acks the number of its first item, and
    :meth:`retransmit_tick` re-sends whatever is still pending.
    Subscribers the failure detector confirms dead are skipped by the
    sweep; their unacked items survive until a takeover subscriber claims
    them (:meth:`claim_orphans`) or the peer rejoins.
    """

    #: retransmission attempts per message before shedding it (with accounting)
    RETRY_LIMIT = 8
    #: items held per subscriber; whole oldest messages are shed beyond
    #: this, never the newest
    OUTBOX_LIMIT = 1024

    def __init__(self, peer: "Peer") -> None:
        self._peer = peer
        self._published: dict[str, Channel] = {}
        self._proxies: dict[tuple[str, str], RemoteChannelProxy] = {}
        self._proxy_unsubscribes: dict[tuple[str, str], Callable[[], None]] = {}
        #: acknowledged delivery + retransmission (off on oracle systems)
        self.reliable = False
        #: takeover replays staged for the next :meth:`retransmit_tick` --
        #: flushed there, not immediately, so a claiming subscriber's
        #: operator is connected before the first replayed item arrives
        self._pending_replays: list[tuple[Channel, str, list[Element]]] = []
        #: epoch-handoff adoptions (:meth:`adopt_orphans`): payloads rescued
        #: from a retiring channel, emitted into its successor stream once
        #: that stream's channel has gained a subscriber.  Each entry is
        #: ``[successor_stream, payloads, attempts]``.
        self._pending_adoptions: list[list] = []
        #: name-allocation fast path: bumped whenever a name is freed, and
        #: per-base resume points for :meth:`allocate_name` probes
        self._free_epoch = 0
        self._name_hints: dict[str, tuple[int, int]] = {}
        peer.register_handler(MSG_SUBSCRIBE, self._on_subscribe)
        peer.register_handler(MSG_UNSUBSCRIBE, self._on_unsubscribe)
        peer.register_handler(MSG_ITEM, self._on_item)
        peer.register_handler(MSG_ITEMS, self._on_item)
        peer.register_handler(MSG_EOS, self._on_eos)
        peer.register_handler(MSG_ACK, self._on_ack)

    # -- publishing side -----------------------------------------------------

    def publish(self, channel_id: str, stream: Stream) -> Channel:
        """Publish ``stream`` as a channel named ``channel_id``."""
        if channel_id in self._published:
            raise ValueError(
                f"peer {self._peer.peer_id!r} already publishes channel {channel_id!r}"
            )
        channel = self._published[channel_id] = Channel(self._peer.peer_id, channel_id, stream, self)
        return channel

    # the forwarder of a channel with a subscriber (Channel.add_subscriber)

    def _forward(self, channel: Channel, item: Any) -> None:
        if item is EOS:
            self._send_eos(channel)
        else:
            self._forward_batch(channel, [item])

    def _forward_many(self, channel: Channel, items: list[Element]) -> None:
        self._forward_batch(channel, items, len(items))

    def unpublish(self, channel_id: str) -> bool:
        """Withdraw a published channel, freeing its name for reuse.

        The forwarder is detached from the underlying stream and remote
        subscribers are notified with an end-of-channel message, unless
        closing that stream notified them already.  Returns False when the
        channel was not published here.
        """
        channel = self._published.pop(channel_id, None)
        if channel is None:
            return False
        # a freed name may sit before any probe's resume point: restart
        # name-allocation probes from their base so it is found again
        self._free_epoch += 1
        channel.unsubscribe()
        if not channel.stream.closed:
            self._send_eos(channel)
        channel.clear_subscribers()
        return True

    def published(self, channel_id: str) -> Channel:
        try:
            return self._published[channel_id]
        except KeyError as exc:
            raise UnknownChannelError(
                f"peer {self._peer.peer_id!r} does not publish channel {channel_id!r}"
            ) from exc

    def publishes(self, channel_id: str) -> bool:
        return channel_id in self._published

    def allocate_name(self, base: str) -> str:
        """First free name in the collision sequence ``base``, ``base-2``, ...

        Returns exactly what probing from ``base`` would return, but in
        amortised O(1): names are only freed by :meth:`unpublish`, so while
        nothing has been freed since the previous probe for ``base`` every
        name before that probe's stop point is still taken and the scan
        resumes there instead of re-walking the sequence (which would make
        ingesting N same-named subscriptions quadratic in N).
        """
        epoch, suffix = self._name_hints.get(base, (-1, 1))
        if epoch != self._free_epoch:
            suffix = 1
        while True:
            candidate = base if suffix == 1 else f"{base}-{suffix}"
            if candidate not in self._published:
                break
            suffix += 1
        # resume at the returned suffix: if the caller publishes it the next
        # probe moves past it after one lookup, if not it is handed out again
        self._name_hints[base] = (self._free_epoch, suffix)
        return candidate

    @property
    def published_ids(self) -> list[str]:
        return sorted(self._published)

    def _send_eos(self, channel: Channel) -> None:
        subscribers = channel.sorted_subscribers()
        if subscribers:  # most channels never gain one: build nothing for them
            payload = Element("channelEos", {"channelId": channel.channel_id})
            for subscriber in subscribers:
                self._peer.send(subscriber, MSG_EOS, payload)

    def _forward_batch(self, channel: Channel, items: list[Element], count: int = 1, to: tuple[str, ...] = ()) -> None:
        """Send ``items`` -- ``count`` of them -- to every subscriber of
        ``channel``, or to the ``to`` ones, in one message each: an item as
        ``channel.item``, a burst as one ``channel.items`` frame.

        The emitted trees cross the link themselves, uncopied, as every local
        subscriber gets them (a stream item is immutable once emitted); only
        the thin wrapper -- it carries the number of the subscriber's next
        item -- is built per message, via the trusted Element constructor,
        its weight set from its parts, not by a walk.  All wrappers of one
        call share one fresh list of the items as their children.
        """
        subscribers = to or channel.sorted_subscribers()
        if not subscribers or not items:
            return
        weight = channel._wrapper_overhead
        if weight is None:
            weight = channel._wrapper_overhead = _wrapper("channelItem", channel, "", []).weight()
        kind, tag = MSG_ITEM, "channelItem"
        if count > 1:
            kind, tag = MSG_ITEMS, "channelItems"
            weight += 2  # one more letter in the opening and in the closing tag
        for item in items:
            weight += item._weight or item.weight()  # an emitted item's weight is memoised
        shared = list(items)
        next_seq, reliable = channel.next_seq, self.reliable
        # group subscribers by their next sequence number: counters advance in
        # lock-step in steady state, so one wrapper usually serves the entire
        # fan-out; only a diverged counter (late join) gets its own wrapper
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
                    # no point transmitting to a confirmed-dead peer: the
                    # entry waits in the outbox for a takeover claim (or
                    # the subscriber's rejoin)
                    continue
            sends.append((subscriber, kind, wrapper))
        network = self._peer.network
        try:
            network.send_many(self._peer.peer_id, sends)
        except UnknownPeerError:
            # a subscriber left the network without unsubscribing, and nothing
            # was sent (send_many checks first): forget it, serve the rest
            for subscriber in subscribers:
                if not network.has_peer(subscriber):
                    self.drop_subscriber(channel.channel_id, subscriber)
            network.send_many(self._peer.peer_id, [send for send in sends if network.has_peer(send[0])])

    def _record_unacked(
        self, channel: Channel, subscriber: str, seq: int, wrapper: Element
    ) -> None:
        bucket = channel.outbox.get(subscriber)
        if bucket is None:
            bucket = channel.outbox[subscriber] = Outbox()
        bucket[seq] = OutboxEntry(wrapper)
        bucket.items_held += len(wrapper.children)
        while bucket.items_held > self.OUTBOX_LIMIT and len(bucket) > 1:
            self._peer.network.stats.items_shed += bucket.drop(min(bucket))

    # -- subscribing side -----------------------------------------------------

    def subscribe_remote(
        self, publisher_id: str, channel_id: str, announce: bool = True
    ) -> RemoteChannelProxy:
        """Subscribe to ``#channel_id@publisher_id`` and return the local proxy.

        ``announce=False`` creates the proxy without sending the
        fire-and-forget subscribe message: the caller announces through the
        reliable RPC path instead (the publisher-side effect is
        :meth:`admit_subscriber` either way).
        """
        key = (publisher_id, channel_id)
        if key in self._proxies:
            return self._proxies[key]
        proxy = RemoteChannelProxy(publisher_id, channel_id, self._peer.peer_id)
        self._proxies[key] = proxy
        if publisher_id == self._peer.peer_id:
            # Local shortcut: wire the proxy straight to the underlying stream,
            # without adding self to the subscriber set (which would cause
            # self-addressed network messages and double delivery).
            channel = self.published(channel_id)
            self._proxy_unsubscribes[key] = channel.stream.subscribe(proxy.push)
            if self.reliable:
                # a local consumer can take over from a dead remote one
                self.claim_orphans(channel, self._peer.peer_id)
        elif announce:
            request = Element(
                "subscribe",
                {"channelId": channel_id, "subscriber": self._peer.peer_id},
            )
            self._peer.send(publisher_id, MSG_SUBSCRIBE, request)
        return proxy

    def has_subscription(self, publisher_id: str, channel_id: str) -> bool:
        """Whether a proxy for ``#channel_id@publisher_id`` exists here."""
        return (publisher_id, channel_id) in self._proxies

    def unsubscribe_remote(
        self, publisher_id: str, channel_id: str, announce: bool = True
    ) -> None:
        key = (publisher_id, channel_id)
        self._proxies.pop(key, None)
        unsubscribe = self._proxy_unsubscribes.pop(key, None)
        if unsubscribe is not None:
            unsubscribe()
        if publisher_id != self._peer.peer_id and announce:
            request = Element(
                "unsubscribe",
                {"channelId": channel_id, "subscriber": self._peer.peer_id},
            )
            self._peer.send(publisher_id, MSG_UNSUBSCRIBE, request)

    def proxy(self, publisher_id: str, channel_id: str) -> RemoteChannelProxy:
        try:
            return self._proxies[(publisher_id, channel_id)]
        except KeyError as exc:
            raise UnknownChannelError(
                f"peer {self._peer.peer_id!r} has no subscription to "
                f"#{channel_id}@{publisher_id}"
            ) from exc

    # -- message handlers ------------------------------------------------------

    def admit_subscriber(self, channel_id: str, subscriber: str) -> Channel:
        """Add ``subscriber`` to a published channel (the subscribe effect).

        Shared by the fire-and-forget subscribe handler and the reliable RPC
        subscribe method.  In reliable mode a new subscriber claims the
        unacked items of confirmed-dead subscribers (takeover on redeploy).
        Raises :class:`UnknownChannelError` when the channel is not
        published here (withdrawn by churn or teardown).
        """
        channel = self.published(channel_id)
        channel.add_subscriber(subscriber)
        if self.reliable:
            self.claim_orphans(channel, subscriber)
        return channel

    def _on_subscribe(self, message) -> None:
        channel_id = message.payload.attrib["channelId"]
        subscriber = message.payload.attrib["subscriber"]
        try:
            self.admit_subscriber(channel_id, subscriber)
        except UnknownChannelError:
            # stale subscribe: the channel was withdrawn (peer churn, task
            # teardown) while the request was in flight -- tell the
            # subscriber the channel is gone instead of crashing
            payload = Element("channelEos", {"channelId": channel_id})
            self._peer.send(subscriber, MSG_EOS, payload)

    def drop_subscriber(self, channel_id: str, subscriber: str) -> None:
        """Remove ``subscriber`` from a published channel (the unsubscribe effect)."""
        channel = self._published.get(channel_id)
        if channel is not None:
            channel.remove_subscriber(subscriber)
            channel.outbox.pop(subscriber, None)
            dead = channel.dead
            if type(dead) is set:
                dead.discard(subscriber)

    def _on_unsubscribe(self, message) -> None:
        self.drop_subscriber(
            message.payload.attrib["channelId"], message.payload.attrib["subscriber"]
        )

    def _on_item(self, message) -> None:
        payload = message.payload
        attrib = payload.attrib
        seq_text = attrib["seq"]
        if self.reliable and message.source != self._peer.peer_id:
            # ack every message by its first number -- duplicates and
            # messages for an already-gone proxy included -- so the
            # publisher's outbox drains regardless of what happens here
            self._peer.send(
                message.source,
                MSG_ACK,
                Element("channelAck", {"channelId": attrib["channelId"], "seq": seq_text}),
            )
            self._peer.network.stats.acks_sent += 1
        proxy = self._proxies.get((attrib["publisher"], attrib["channelId"]))
        if proxy is None or proxy.closed:
            return  # late item for an unsubscribed/closed proxy: drop it
        items, first = payload.children, int(seq_text)
        if first == proxy._seq_floor + 1 and not proxy.seen_seqs:
            proxy._seq_floor += len(items)  # in order, nothing parked: K numbers, one comparison
        else:
            items = [item for seq, item in enumerate(items, first) if proxy.accept_seq(seq)]
            proxy.duplicates_dropped += len(payload.children) - len(items)
            if not items:
                return  # a faulty (or retransmitting) network duplicated all of it
        if message.kind == MSG_ITEMS:
            # Stream.emit_many without its item check: a replica channel of
            # the proxy forwards one frame and never sees an item
            try:
                proxy.emit_trusted(items)
            except StreamClosedError:
                pass  # a subscriber closed the proxy: the rest of the frame is dropped
            return
        # Stream.emit without its checks: the proxy is open and the publisher's
        # stream validated the item
        item = items[0]
        stats = proxy.stats
        stats.items += 1
        subscribers = proxy._subscribers
        if len(subscribers) == 1:
            subscribers[0](item)
        else:
            for subscriber in list(subscribers):
                subscriber(item)

    def _on_ack(self, message) -> None:
        attrib = message.payload.attrib
        channel = self._published.get(attrib["channelId"])
        if channel is None:
            return
        bucket = channel.outbox.get(message.source)
        if bucket is not None:
            bucket.drop(int(attrib["seq"]))
            if not bucket:
                channel.outbox.pop(message.source, None)

    def _on_eos(self, message) -> None:
        channel_id = message.payload.attrib["channelId"]
        proxy = self._proxies.get((message.source, channel_id))
        if proxy is not None:
            proxy.close()

    # -- reliable delivery (retransmission, death, takeover) -------------------

    def retransmit_tick(self) -> None:
        """One reliability round: flush staged replays, re-send unacked messages.

        Called once per system tick in detector mode.  Messages for
        confirmed-dead subscribers are skipped (held for takeover); messages
        re-sent more than :data:`RETRY_LIMIT` times are shed, and their
        items counted.
        """
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
                    # the successor died before anyone subscribed: the items
                    # are genuinely lost, account for them
                    stats.items_shed += len(payloads)
                    continue
                entry[2] = rounds + 1
                if entry[2] == 1:
                    # staged during this very tick: the replacement's own
                    # subscribe announcements are still in flight, and an
                    # immediate emit could cascade into a downstream channel
                    # that has no subscribers yet -- hold one round
                    still_pending.append(entry)
                    continue
                has_local_consumer = (
                    self._peer.peer_id,
                    stream.stream_id,
                ) in self._proxies
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
            for channel, subscriber, items in replays:
                if self._published.get(channel.channel_id) is not channel:
                    continue  # channel withdrawn while the replay was staged
                if subscriber == self._peer.peer_id:
                    proxy = self._proxies.get(
                        (self._peer.peer_id, channel.channel_id)
                    )
                    if proxy is not None and not proxy.closed:
                        for item in items:
                            proxy.push(item)
                        stats.items_replayed += len(items)
                elif subscriber in channel.subscribers:
                    # the claimed items go to the taker as fresh ones
                    self._forward_batch(channel, items, len(items), (subscriber,))
                    stats.items_replayed += len(items)
        for channel_id in sorted(self._published):
            channel = self._published[channel_id]
            outbox = channel.outbox
            if not outbox:
                continue
            sends: list[tuple[str, str, Element]] = []
            for subscriber in sorted(outbox):
                if subscriber in channel.dead:
                    continue
                entries = outbox[subscriber]
                for seq in sorted(entries):
                    entry = entries[seq]
                    entry.attempts += 1
                    if entry.attempts > self.RETRY_LIMIT:
                        stats.items_shed += entries.drop(seq)
                        continue
                    wrapper = entry.wrapper
                    sends.append((subscriber, MSG_ITEMS if wrapper.tag == "channelItems" else MSG_ITEM, wrapper))
                    stats.items_retransmitted += len(wrapper.children)
                if not entries:
                    del outbox[subscriber]
            if sends:
                network.send_many(self._peer.peer_id, sends)

    def claim_orphans(self, channel: Channel, subscriber: str) -> int:
        """Transfer dead subscribers' unacked items to ``subscriber``.

        Takeover semantics for recovery: when a consumer peer is confirmed
        dead and the subscription is redeployed elsewhere, the replacement's
        subscribe claims whatever the dead consumer never acked, so items
        emitted during the detection window are not lost.  The claimed
        items are staged and sent to ``subscriber`` as one burst on the
        next :meth:`retransmit_tick` -- by then the takeover deployment has
        connected its operator to the new proxy.  Dead subscribers are
        dropped from the channel entirely (the claim supersedes them); a
        message shared between several dead subscribers is claimed once.
        Returns the number of claimed items.
        """
        if not channel.dead:
            return 0
        items = self._take_orphans(channel)
        if items:
            self._pending_replays.append((channel, subscriber, items))
        return len(items)

    @staticmethod
    def _take_orphans(channel: Channel) -> list[Element]:
        """Drop the dead subscribers of ``channel``; the items of their unacked
        messages, oldest first.  A message is taken by the children list all
        wrappers of one send share, so each send is claimed once and an item
        emitted twice is claimed twice."""
        sends: dict[int, list[Element]] = {}
        for dead_subscriber in sorted(channel.dead):
            entries = channel.outbox.pop(dead_subscriber, {})
            for seq in sorted(entries):
                sent = entries[seq].wrapper.children
                sends.setdefault(id(sent), sent)
            channel.remove_subscriber(dead_subscriber)
            channel.next_seq.pop(dead_subscriber, None)
        channel.dead = _EMPTY
        return [item for sent in sends.values() for item in sent]

    def adopt_orphans(self, old_channel_id: str, successor: Stream) -> int:
        """Hand a retiring channel's orphaned items over to its successor.

        Recovery redeployments publish each surviving operator's output
        under a *fresh* (epoch-suffixed) channel id, so a takeover
        subscriber of the new incarnation never touches the old channel --
        :meth:`claim_orphans` cannot save items the dead consumer left
        unacked there, and the old channel's teardown would drop them.
        Called by the deployer when it re-instantiates an operator on the
        same peer: the dead subscribers' unacked items move from the old
        channel's outboxes into a staged adoption, emitted into
        ``successor`` (the replacement's output stream, *post*-operator, so
        nothing is reprocessed) as one burst on the first
        :meth:`retransmit_tick` where the successor channel has a subscriber
        to deliver to.  Returns the number of adopted items.
        """
        channel = self._published.get(old_channel_id)
        if channel is None or not channel.dead:
            return 0
        items = self._take_orphans(channel)
        if items:
            self._pending_adoptions.append([successor, items, 0])
        return len(items)

    def handle_peer_death(self, peer_id: str) -> None:
        """Failure-detector confirmation: stop transmitting to ``peer_id``.

        The subscriber stays in the channel (its outbox keeps accumulating
        emitted items) so a takeover claim or its own rejoin can resume
        without loss.
        """
        for channel in self._published.values():
            if peer_id in channel.subscribers:
                dead = channel.dead
                if type(dead) is set:
                    dead.add(peer_id)
                else:
                    channel.dead = {peer_id}

    def handle_peer_rejoin(self, peer_id: str) -> None:
        """Detector rejoin: resume retransmission to an unclaimed subscriber."""
        for channel in self._published.values():
            dead = channel.dead
            if type(dead) is set:
                dead.discard(peer_id)
