"""Lifecycle primitives: bounded result buffers, delivery valves, resource ledger.

The Subscription Manager owns the *whole* life of a monitoring task
(Section 3.1), not just its deployment.  This module provides the three
mechanisms the lifecycle verbs are built on:

* :class:`ResultBuffer` -- a bounded, subscriber-driven replacement for the
  unbounded ``collect()`` sink: at the paper's millions-of-users scale a
  result list that only ever grows is a memory leak.
* :class:`DeliveryValve` -- the delivery stream of a task: a gated stream
  between the task's output stream and its delivery targets (publisher,
  result buffer, callbacks).  ``pause()`` stops delivery without tearing
  anything down; ``resume()`` restarts it, flushing whatever the valve
  retained while paused.
* :class:`ResourceLedger` -- reference counting over deployed resources
  (operator output streams, alerter advertisements, channel proxies).  A
  stream feeding two subscriptions must survive the cancellation of one of
  them; only when the last holder releases a resource do its recorded undo
  actions run (detach operators, close streams, retract Stream Definition
  Database advertisements).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator

from repro.streams.item import EOS
from repro.streams.stream import Stream, StreamClosedError
from repro.xmlmodel.tree import Element

#: Default bound of the buffer a paused valve retains items in.
DEFAULT_PAUSE_BUFFER = 1024

UndoAction = Callable[[], None]


def run_all(actions: list[UndoAction]) -> None:
    """Run every teardown action even if some fail, then re-raise the first error.

    A cancel must never leave stale state (e.g. an unretracted Stream
    Definition Database advertisement) because an earlier undo action hit a
    transient error such as a departed subscriber peer.
    """
    first_error: BaseException | None = None
    for action in actions:
        try:
            action()
        except Exception as exc:  # noqa: BLE001 - teardown must make progress
            if first_error is None:
                first_error = exc
    if first_error is not None:
        raise first_error


class ResultBuffer:
    """A bounded buffer of result items fed by a stream subscription.

    When full, the oldest item is evicted (monitoring cares about fresh
    results); :attr:`dropped` counts evictions so callers can tell the
    window was exceeded.
    """

    def __init__(self, max_results: int) -> None:
        if max_results <= 0:
            raise ValueError("max_results must be positive")
        self.max_results = max_results
        self.dropped = 0
        self.closed = False
        self._items: deque[Element] = deque(maxlen=max_results)

    def push(self, item: Any) -> None:
        """Stream-subscriber entry point (accepts EOS)."""
        if item is EOS:
            self.closed = True
            return
        if len(self._items) == self.max_results:
            self.dropped += 1
        self._items.append(item)

    def snapshot(self) -> list[Element]:
        """The currently buffered results, oldest first."""
        return list(self._items)

    def clear(self) -> None:
        self._items.clear()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.snapshot())

    def __repr__(self) -> str:
        return (
            f"ResultBuffer(buffered={len(self._items)}, max={self.max_results}, "
            f"dropped={self.dropped})"
        )


class DeliveryValve(Stream):
    """The delivery stream of a task, gated: what the publisher, the result
    buffer and user callbacks subscribe to.

    The valve subscribes to ``source`` and is itself the stream its items
    come out of, so an open valve costs one call per item or burst.  While paused, up
    to ``max_pause_buffer`` items are retained (oldest evicted beyond that)
    and flushed on resume, so a paused subscription loses nothing within its
    retention window and needs no redeployment.  The inherited
    :meth:`~repro.streams.stream.Stream.emit` bypasses the gate (resume and
    the sharded harvest inject through it).
    """

    def __init__(self, source: Stream, max_pause_buffer: int = DEFAULT_PAUSE_BUFFER) -> None:
        super().__init__(f"{source.stream_id}.delivery", source.peer_id)
        self.source = source
        self.paused = False
        self.items_delivered = 0
        self.dropped_while_paused = 0
        self._pending: deque[Element] = deque(maxlen=max_pause_buffer)
        self._max_pause_buffer = max_pause_buffer
        self._eos_pending = False
        self._unsubscribe = source.subscribe(self._receive)

    def _receive(self, item: Any) -> None:
        """Pause gate, then :meth:`Stream.emit` without its item check:
        ``source`` validated the item when it was emitted there."""
        if item is EOS:
            if self.paused:
                self._eos_pending = True
            else:
                self.close()
            return
        if self.paused:
            if len(self._pending) == self._max_pause_buffer:
                self.dropped_while_paused += 1
            self._pending.append(item)
            return
        if self.closed:
            raise StreamClosedError(f"stream {self.qualified_id} is closed")
        self.items_delivered += 1
        stats = self.stats
        stats.items += 1
        if self.keep_history:
            self.history.append(item)
        subscribers = self._subscribers
        if len(subscribers) == 1:
            subscribers[0](item)
        else:
            for subscriber in list(subscribers):
                subscriber(item)

    def _receive_many(self, items: list[Element]) -> None:
        """A burst through the gate in one frame, item-major, to the subscribers
        of the moment it arrives; the accounts commit when it ends.  Whatever is
        not plain delivery stays ``_receive``'s: a paused valve retains the rest."""
        subscribers = list(self._subscribers)
        delivered = 0
        for item in items:
            if self.paused or self.closed or self.keep_history:
                break
            delivered += 1
            for subscriber in subscribers:
                subscriber(item)
        self.items_delivered += delivered
        self.stats.items += delivered
        if not (delivered and self.closed):  # closed by a subscriber's cancel: detached, the rest is not offered
            for item in items[delivered:]:
                self._receive(item)

    _receive.batch = _receive_many  # type: ignore[attr-defined]  # see Stream.deliver_many

    @property
    def pending_count(self) -> int:
        """Items retained while paused, not yet flushed."""
        return len(self._pending)

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        """Restart delivery, flushing what was retained while paused.

        A subscriber may pause again from inside the flush: the flush stops
        there, the rest (a pending EOS included) stays retained.
        """
        if not self.paused:
            return
        self.paused = False
        while self._pending and not self.paused:
            self.items_delivered += 1
            self.emit(self._pending.popleft())
        if self._eos_pending and not self.paused:
            self._eos_pending = False
            self.close()

    def detach(self) -> None:
        """Unsubscribe from the source and terminate the delivery stream."""
        self._unsubscribe()
        self._pending.clear()
        self.close()


class _Entry:
    __slots__ = ("holders", "undo")

    def __init__(self) -> None:
        self.holders: set[str] = set()
        self.undo: list[UndoAction] = []


class ResourceLedger:
    """Reference-counted registry of deployed resources and their undo actions.

    Keys are opaque hashable identities (canonical ``(peer, stream)`` pairs
    for deployed streams, longer tuples for channel proxies).  Holders are
    strings naming the consuming entity (a downstream stream entry or a
    subscription terminal), so releases are idempotent per consumer.  When
    the last holder releases an entry, its undo actions run in registration
    order -- releasing child resources from inside an undo action cascades
    naturally.
    """

    def __init__(self) -> None:
        self._entries: dict[object, _Entry] = {}
        self.teardowns = 0

    # -- registration ----------------------------------------------------------

    def known(self, key: object) -> bool:
        return key in self._entries

    def register(self, key: object) -> bool:
        """Ensure an entry for ``key`` exists; True when newly created."""
        if key in self._entries:
            return False
        self._entries[key] = _Entry()
        return True

    def add_undo(self, key: object, *actions: UndoAction) -> None:
        """Append teardown actions to run, in order, when ``key``'s last holder leaves."""
        self._entries[key].undo.extend(actions)

    # -- reference counting ----------------------------------------------------

    def retain(self, key: object, holder: str) -> None:
        """Record that ``holder`` depends on the resource ``key``."""
        self._entries[key].holders.add(holder)

    def release(self, key: object, holder: str) -> bool:
        """Drop ``holder``'s reference; returns True when this tore ``key`` down."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry.holders.discard(holder)
        if entry.holders:
            return False
        del self._entries[key]
        self.teardowns += 1
        run_all(entry.undo)
        return True

    def holders(self, key: object) -> set[str]:
        entry = self._entries.get(key)
        return set(entry.holders) if entry is not None else set()

    def keys(self) -> list[object]:
        """All currently registered resource keys (recovery scans these)."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"ResourceLedger(entries={len(self._entries)}, teardowns={self.teardowns})"
