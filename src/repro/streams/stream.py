"""Push-based streams with subscriber fan-out and accounting.

A :class:`Stream` is the in-process representation of the paper's XML
streams.  Producers (alerters, operators) call :meth:`Stream.emit`; every
subscriber callback receives the item.  Cross-peer delivery is layered on
top by :mod:`repro.net.channel`, whose forwarder subscribes while a channel
has a subscriber.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MethodType
from typing import Callable, Iterable

from repro.streams.item import EOS
from repro.xmlmodel.tree import Element

Subscriber = Callable[[object], None]


class StreamClosedError(RuntimeError):
    """Raised when emitting on a stream that has already seen EOS."""


@dataclass
class StreamStats:
    """Per-stream counters (bytes are a link account: ``NetworkStats``)."""

    items: int = 0


class Stream:
    """A named, push-based stream of XML trees.

    Parameters
    ----------
    stream_id:
        Identifier of the stream, unique within its peer.
    peer_id:
        Identifier of the peer that produces the stream (may be ``None`` for
        purely local streams used in tests).
    keep_history:
        When true, every emitted item is retained in :attr:`history`.  The
        stateful Join operator and tests use this.
    """

    def __init__(
        self,
        stream_id: str,
        peer_id: str | None = None,
        keep_history: bool = False,
    ) -> None:
        self.stream_id = stream_id
        self.peer_id = peer_id
        self.keep_history = keep_history
        self.history: list[Element] = []
        self.stats = StreamStats()
        self.closed = False
        self._subscribers: list[Subscriber] = []
        #: (batch entry points, per-item subscribers), built by the first burst after a (un)subscribe
        self._split: tuple[tuple, tuple] | None = None

    # -- identity ------------------------------------------------------------

    @property
    def qualified_id(self) -> str:
        """``streamId@peerId`` -- how the paper denotes streams (s@p)."""
        return f"{self.stream_id}@{self.peer_id or 'local'}"

    # -- subscription ----------------------------------------------------------

    def subscribe(self, callback: Subscriber) -> Callable[[], None]:
        """Register ``callback`` and return a function that unsubscribes it
        (calling it again does nothing)."""
        self._subscribers.append(callback)
        self._split = None

        def unsubscribe() -> None:
            if callback in self._subscribers:
                self._subscribers.remove(callback)
                self._split = None

        return unsubscribe

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    # -- emission ----------------------------------------------------------------

    def emit(self, item: Element) -> None:
        """Push one XML tree to all subscribers."""
        if self.closed:
            raise StreamClosedError(f"stream {self.qualified_id} is closed")
        if not isinstance(item, Element):
            raise TypeError(f"stream items must be Elements, got {type(item).__name__}")
        stats = self.stats
        stats.items += 1
        if self.keep_history:
            self.history.append(item)
        subscribers = self._subscribers
        if len(subscribers) == 1:
            # common delivery-path shape: no defensive copy; a lone subscriber that
            # (un)subscribes mid-call sees the same behaviour a snapshot would give it
            subscribers[0](item)
        else:
            for subscriber in list(subscribers):
                subscriber(item)

    def emit_many(self, items: Iterable[Element]) -> None:
        """Push a burst of XML trees, amortising accounting and fan-out.

        Stats and history are updated once for the whole batch (they commit
        when the open stream accepts it).

        Delivery contract:

        * Subscribers that advertise a batch entry point (a ``batch``
          attribute on the callback, as ``Operator.connect`` installs it, or
          on the function of a bound method, as :meth:`push` has it) are **batch
          atomic**: each receives the whole burst in one call, before
          per-item subscribers.  A close they perform takes effect only
          after their call returns.
        * Per-item subscribers then receive the items item-major, exactly
          as a loop of :meth:`emit` calls would deliver them among
          themselves: an item in flight when the stream is closed still
          reaches each of them before delivery stops.
        * A close during delivery stops all further delivery — nothing is
          pushed after the EOS marker — and :class:`StreamClosedError` is
          raised to the producer.
        """
        batch = items if isinstance(items, list) else list(items)
        if not self.closed:  # a closed stream raises StreamClosedError before any item is checked
            for item in batch:
                if not isinstance(item, Element):
                    raise TypeError(f"stream items must be Elements, got {type(item).__name__}")
        self.emit_trusted(batch)

    def emit_trusted(self, batch: list[Element]) -> None:
        """:meth:`emit_many` minus the item check, for an engine's list of Elements."""
        if not batch:
            return
        if self.closed:
            raise StreamClosedError(f"stream {self.qualified_id} is closed")
        self.deliver_many(batch)
        if self.closed:
            raise StreamClosedError(f"stream {self.qualified_id} closed during batch delivery")

    def deliver_many(self, batch: list[Element]) -> None:
        """:meth:`emit_many` past its checks, for a non-empty list a stream has
        validated (a channel proxy's frame); stops silently once closed."""
        stats = self.stats
        stats.items += len(batch)
        if self.keep_history:
            self.history.extend(batch)
        batch_subscribers, item_subscribers = self._split or self._split_subscribers()
        for deliver_batch in batch_subscribers:
            deliver_batch(batch)
            if self.closed:
                return
        if item_subscribers:
            for item in batch:
                for subscriber in item_subscribers:
                    subscriber(item)
                if self.closed:
                    return

    def _split_subscribers(self) -> tuple[tuple, tuple]:
        """Cache the batch entry points and the per-item rest, in order, as tuples."""
        batch_subscribers: list = []
        item_subscribers: list = []
        for subscriber in self._subscribers:
            deliver_batch = getattr(subscriber, "batch", None)
            if deliver_batch is None:
                item_subscribers.append(subscriber)
            elif type(subscriber) is MethodType:
                # a bound method cannot carry attributes: it reads ``batch``
                # off its function, which takes the method's object first
                batch_subscribers.append(MethodType(deliver_batch, subscriber.__self__))
            else:
                batch_subscribers.append(deliver_batch)
        self._split = (tuple(batch_subscribers), tuple(item_subscribers))
        return self._split

    def close(self) -> None:
        """Emit the end-of-stream marker and refuse further items."""
        if self.closed:
            return
        self.closed = True
        for subscriber in list(self._subscribers):
            subscriber(EOS)

    def push(self, item: object) -> None:
        """Forward either an item or EOS (convenient for chaining streams)."""
        if item is EOS:
            self.close()
        else:
            self.emit(item)  # type: ignore[arg-type]

    push.batch = emit_trusted  # type: ignore[attr-defined]  # a relayed burst stays one burst

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"Stream({self.qualified_id}, {state}, items={self.stats.items}, "
            f"subscribers={len(self._subscribers)})"
        )


def collect(stream: Stream) -> list[Element]:
    """Subscribe a list-collector to ``stream`` and return the (live) list.

    Items emitted after the call are appended to the returned list; EOS is
    not appended.  Heavily used by tests and examples.
    """
    sink: list[Element] = []

    def _collector(item: object) -> None:
        if item is not EOS:
            sink.append(item)  # type: ignore[arg-type]

    stream.subscribe(_collector)
    return sink
