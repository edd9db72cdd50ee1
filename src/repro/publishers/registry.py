"""Declarative registry of publication modes.

"Publisher is an operator in charge of publishing streams generated by
stream processors, under different forms" (Section 3.1).  New publication
modes plug in without touching the deployment layer: a factory registered
under the BY-clause mode name builds the publisher from a
:class:`PublisherContext` describing where and what is being published.

    @register_publisher("email")
    def _make_email(ctx):
        return EmailPublisher(ctx.params["target"])

Factories that allocate named, per-peer resources (e.g. channels) use the
context helpers: :meth:`PublisherContext.unique_channel_name` resolves name
collisions, :meth:`PublisherContext.advertise_channel` declares the
published stream in the Stream Definition Database, and any callable
appended to :attr:`PublisherContext.undo` runs when the subscription is
cancelled (freeing the name, retracting the advertisement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.publishers.base import Publisher
from repro.publishers.channel_pub import ChannelPublisher
from repro.publishers.email_pub import EmailPublisher
from repro.publishers.file_pub import FilePublisher, WebPagePublisher
from repro.publishers.rss_pub import RSSPublisher

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.plan import PlanNode
    from repro.monitor.p2pm_peer import P2PMPeer, P2PMSystem


@dataclass
class PublisherContext:
    """Everything a publisher factory may need at deployment time."""

    #: the peer the publisher runs at
    peer: "P2PMPeer"
    #: the PUBLISH plan node's parameters (mode, target, subscriber, ...)
    params: dict
    #: the whole system (Stream Definition Database, other peers)
    system: "P2PMSystem"
    #: the subscription being deployed
    sub_id: str
    #: canonical ``(peer, stream)`` identity of the published input stream
    operand: tuple[str, str]
    #: the PUBLISH plan node itself (for Stream Definition DB descriptions)
    node: "PlanNode | None" = None
    #: channels the factory created, as ``#name@peer`` strings
    channels_created: list[str] = field(default_factory=list)
    #: teardown actions, run in order when the subscription is cancelled
    undo: list[Callable[[], None]] = field(default_factory=list)
    #: the stream :meth:`advertise_channel` described, if any
    advertised: str | None = None

    def unique_channel_name(self, base: str) -> str:
        """Resolve per-peer channel-name collisions by suffixing.

        Channel names are per-peer unique; a second subscription asking for
        an already-used name gets a suffixed channel.  Cancellation frees
        the name again (see the undo actions registered by the channel
        factory), so the suffix counter restarts from the base name.
        """
        return self.peer.net.channels.allocate_name(base)

    def advertise_channel(self, stream_id: str) -> str | None:
        """Declare the published channel in the Stream Definition Database.

        The advertisement carries the *final* (collision-resolved) name, so
        the name in the database, in ``channels_created`` and on the wire
        always agree.  Retraction on cancel is registered automatically,
        once: the document id is the stream's, so advertising it again
        replaces the description.
        """
        if self.node is None:
            return None
        doc_id = self.system.stream_db.publish_node(
            self.node, self.peer.peer_id, stream_id, [self.operand]
        )
        if self.advertised is None:
            self.undo.append(lambda: self.system.stream_db.retract(doc_id))
        self.advertised = stream_id
        return doc_id

    def readvertise(self, operand: tuple[str, str]) -> None:
        """Describe the advertised stream, if any, over ``operand``: a
        redeployment's root stream."""
        self.operand = operand
        if self.advertised is not None:
            self.advertise_channel(self.advertised)


PublisherFactory = Callable[[PublisherContext], Publisher]

_FACTORIES: dict[str, PublisherFactory] = {}


def register_publisher(mode: str) -> Callable[[PublisherFactory], PublisherFactory]:
    """Register a factory for BY-clause mode ``mode``."""

    def decorator(factory: PublisherFactory) -> PublisherFactory:
        if mode in _FACTORIES:
            raise ValueError(f"publication mode {mode!r} already registered")
        _FACTORIES[mode] = factory
        return factory

    return decorator


def unregister_publisher(mode: str) -> bool:
    """Remove a registration (tests and plug-in reloads); False when unknown."""
    return _FACTORIES.pop(mode, None) is not None


def publisher_modes() -> list[str]:
    """All registered publication modes."""
    return sorted(_FACTORIES)


def create_publisher(mode: str, ctx: PublisherContext) -> Publisher:
    """Build the publisher for ``mode``; raises on unknown modes."""
    factory = _FACTORIES.get(mode)
    if factory is None:
        raise ValueError(
            f"unknown publication mode {mode!r} "
            f"(registered: {', '.join(publisher_modes())})"
        )
    return factory(ctx)


# -- built-in publication modes ----------------------------------------------------


@register_publisher("channel")
def _make_channel(ctx: PublisherContext) -> Publisher:
    target = ctx.unique_channel_name(ctx.params["target"])
    subscriber = ctx.params.get("subscriber")
    publisher = ChannelPublisher(ctx.peer.net, target, subscriber[:1] if subscriber else ())
    # cancelling unpublishes the channel, freeing the name for reuse;
    # registered before the advertisement, which may raise
    ctx.undo.append(lambda: ctx.peer.net.unpublish_channel(target))
    ctx.channels_created.append(f"#{target}@{ctx.peer.peer_id}")
    ctx.advertise_channel(target)
    return publisher


@register_publisher("email")
def _make_email(ctx: PublisherContext) -> Publisher:
    return EmailPublisher(ctx.params["target"])


@register_publisher("file")
def _make_file(ctx: PublisherContext) -> Publisher:
    return FilePublisher(ctx.params["target"])


@register_publisher("rss")
def _make_rss(ctx: PublisherContext) -> Publisher:
    return RSSPublisher(ctx.params["target"])


@register_publisher("webpage")
def _make_webpage(ctx: PublisherContext) -> Publisher:
    return WebPagePublisher(ctx.params["target"])
