"""Channel publisher: the basis of the Pub/Sub mechanism.

Publishing a stream as a channel makes it available to remote subscribers;
the publisher can also subscribe an initial client automatically, as in the
``by channel X and subscribe(b.com, #X, X)`` tasks of Section 3.4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.publishers.base import Publisher
from repro.streams.stream import Stream
from repro.xmlmodel.tree import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.peer import Peer


class ChannelPublisher(Publisher):
    """Republishes a stream as a named channel at a peer."""

    mode = "channel"

    def __init__(self, peer: "Peer", channel_id: str) -> None:
        super().__init__()
        self.peer = peer
        self.channel_id = channel_id
        # the channel wraps a dedicated relay stream owned by the peer
        self.relay = Stream(f"#{channel_id}", peer.peer_id)
        self.channel = peer.publish_channel(channel_id, self.relay)

    def publish(self, item: Element) -> None:
        self.relay.emit(item)

    def on_close(self) -> None:
        self.relay.close()

    def add_subscriber(self, subscriber_peer_id: str) -> None:
        """Register an initial subscriber without a network round-trip."""
        self.channel.add_subscriber(subscriber_peer_id)
