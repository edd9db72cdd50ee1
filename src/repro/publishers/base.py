"""Common behaviour of publishers (stream sinks)."""

from __future__ import annotations

from typing import Any, Callable

from repro.streams.item import EOS
from repro.streams.stream import Stream
from repro.xmlmodel.tree import Element


class Publisher:
    """Base class: consumes a stream and exposes it in some external form."""

    mode = "publisher"
    items_published = 0  # items received so far
    closed = False  # whether the input stream has ended

    def __init__(self) -> None:
        self._unsubscribes: list[Callable[[], None]] = []

    def connect(self, stream: Stream) -> "Publisher":
        self._unsubscribes.append(stream.subscribe(self._receive))
        return self

    def disconnect(self) -> None:
        """Stop consuming every connected stream (used at cancellation)."""
        while self._unsubscribes:
            self._unsubscribes.pop()()

    def _receive(self, item: Any) -> None:
        if item is EOS:
            self.closed = True
            self.on_close()
            return
        self.items_published += 1
        self.publish(item)

    def publish(self, item: Element) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_close(self) -> None:
        """Hook called when the input stream terminates."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(items={self.items_published})"
