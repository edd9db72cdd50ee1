"""Network endpoint: typed message handlers, local streams and channels."""

from __future__ import annotations

from typing import Callable

from repro.net.channel import ChannelRegistry, RemoteChannelProxy
from repro.net.simnet import Message, SimNetwork
from repro.streams.stream import Stream
from repro.xmlmodel.tree import Element

MessageHandler = Callable[[Message], None]


class Peer:
    """A peer in the simulated network.

    This is the *transport-level* peer: it can send and receive messages,
    create local streams, publish them as channels and subscribe to channels
    published elsewhere.  The monitoring behaviour (subscription manager,
    operators, alerters) is layered on top by
    :class:`repro.monitor.p2pm_peer.P2PMPeer`.
    """

    def __init__(
        self,
        peer_id: str,
        network: SimNetwork,
        coordinates: tuple[float, float] | None = None,
    ) -> None:
        if not peer_id:
            raise ValueError("peer_id must be a non-empty string")
        self.peer_id = peer_id
        self.network = network
        self._handlers: dict[str, MessageHandler] = {}
        self._streams: dict[str, Stream] = {}
        self._stream_counter = 0
        network.register(self, coordinates)
        self.channels = ChannelRegistry(self)

    # -- messaging -------------------------------------------------------------

    def register_handler(self, kind: str, handler: MessageHandler) -> None:
        """Register the handler invoked for messages of the given kind."""
        if kind in self._handlers:
            raise ValueError(f"peer {self.peer_id!r} already handles {kind!r}")
        self._handlers[kind] = handler

    def send(self, destination: str, kind: str, payload: Element) -> Message:
        """Send a message through the network."""
        return self.network.send(self.peer_id, destination, kind, payload)

    def handle_message(self, message: Message) -> None:
        """Dispatch an incoming message to its handler (called by the network)."""
        handler = self._handlers.get(message.kind)
        if handler is None:
            raise ValueError(
                f"peer {self.peer_id!r} received message of unknown kind "
                f"{message.kind!r} from {message.source!r}"
            )
        handler(message)

    # -- streams ----------------------------------------------------------------

    def create_stream(self, stream_id: str | None = None) -> Stream:
        """Create (and register) a local stream owned by this peer."""
        if stream_id is None:
            self._stream_counter += 1
            stream_id = f"s{self._stream_counter}"
        if stream_id in self._streams:
            raise ValueError(f"peer {self.peer_id!r} already owns stream {stream_id!r}")
        stream = Stream(stream_id, self.peer_id)
        self._streams[stream_id] = stream
        return stream

    # -- channels (thin wrappers over the registry) ------------------------------

    def publish_channel(self, channel_id: str, stream: Stream):
        """Publish a local stream as channel ``#channel_id@self``."""
        return self.channels.publish(channel_id, stream)

    def subscribe_channel(self, publisher_id: str, channel_id: str) -> RemoteChannelProxy:
        """Subscribe to ``#channel_id@publisher_id``; returns the local proxy stream."""
        return self.channels.subscribe_remote(publisher_id, channel_id)

    def unpublish_channel(self, channel_id: str) -> bool:
        """Withdraw channel ``#channel_id@self``; returns False when unknown."""
        return self.channels.unpublish(channel_id)

    def drop_stream(self, stream_id: str) -> bool:
        """Forget a local stream (teardown); returns False when unknown."""
        return self._streams.pop(stream_id, None) is not None

    def __repr__(self) -> str:
        return f"Peer({self.peer_id!r}, streams={len(self._streams)})"
