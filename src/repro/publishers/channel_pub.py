"""Channel publisher: the basis of the Pub/Sub mechanism.

Publishing a stream as a channel makes it available to remote subscribers;
the publisher can also subscribe initial clients automatically, as in the
``by channel X and subscribe(b.com, #X, X)`` tasks of Section 3.4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.publishers.base import Publisher
from repro.streams.stream import Stream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.channel import Channel
    from repro.net.peer import Peer


class ChannelPublisher(Publisher):
    """Publishes the stream it is connected to as a named channel at a peer:
    the channel's forwarder reads that stream (a subscription's valve), so
    the publisher adds no hop, and its counts are the stream's."""

    mode = "channel"
    channel: "Channel | None" = None

    def __init__(self, peer: "Peer", channel_id: str, subscribers: Iterable[str] = ()) -> None:
        super().__init__()
        self.peer = peer
        self.channel_id = channel_id
        self.subscribers = tuple(subscribers)

    def connect(self, stream: Stream) -> "ChannelPublisher":
        channel = self.channel = self.peer.publish_channel(self.channel_id, stream)
        for subscriber in self.subscribers:
            channel.add_subscriber(subscriber)
        self._unsubscribes.append(channel.unsubscribe)  # withdraws the forwarder
        return self

    @property  # type: ignore[override]
    def items_published(self) -> int:
        return self.channel.stream.stats.items if self.channel is not None else 0

    @property  # type: ignore[override]
    def closed(self) -> bool:
        return self.channel is not None and self.channel.stream.closed
