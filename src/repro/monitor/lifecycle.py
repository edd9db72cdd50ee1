"""Lifecycle primitives: bounded result buffers, delivery valves, resource ledger.

The Subscription Manager owns the *whole* life of a monitoring task
(Section 3.1), not just its deployment.  This module provides the three
mechanisms the lifecycle verbs are built on:

* :class:`ResultBuffer` -- a bounded, subscriber-driven replacement for the
  unbounded ``collect()`` sink: at the paper's millions-of-users scale a
  result list that only ever grows is a memory leak.
* :class:`DeliveryValve` -- the delivery stream of a subscription: a gated
  stream between the root stream of whichever deployment runs now and the
  delivery targets (publisher, result buffer, callbacks).  ``pause()`` stops
  delivery without tearing anything down; ``resume()`` restarts it, flushing
  whatever the valve retained while paused.
* :class:`ResourceLedger` -- the deployment graph and its only teardown
  mechanism.  Every deployed resource (operator output stream, alerter
  advertisement, channel proxy, subscription terminal) is an entry holding
  the entries it consumes.  A stream feeding two subscriptions must survive
  the cancellation of one of them; only when the last holder releases a
  resource do its undo actions run (detach operators, close streams,
  retract Stream Definition Database advertisements) and its own inputs
  get released in turn.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Sequence

from repro.streams.item import EOS
from repro.streams.stream import Stream, StreamClosedError
from repro.xmlmodel.tree import Element

#: Default bound of the buffer a paused valve retains items in.
DEFAULT_PAUSE_BUFFER = 1024

UndoAction = Callable[[], None]


def run_all(
    actions: Iterable[UndoAction],
    release: Callable[[object, object], bool] | None = None,
    inputs: Sequence[object] = (),
    holder: object = None,
) -> None:
    """Run every undo action, then ``release(key, holder)`` for every input
    key, even if some fail; re-raise the first error afterwards.

    A cancel must never leave stale state (e.g. an unretracted Stream
    Definition Database advertisement, or an input nobody releases) because
    an earlier step hit a transient error such as a departed subscriber peer.
    """
    first_error: BaseException | None = None
    for action in actions:
        try:
            action()
        except Exception as exc:  # noqa: BLE001 - teardown must make progress
            if first_error is None:
                first_error = exc
    for key in inputs:
        try:
            release(key, holder)
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

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return (
            f"ResultBuffer(buffered={len(self._items)}, max={self.max_results}, "
            f"dropped={self.dropped})"
        )


class DeliveryValve(Stream):
    """The delivery stream of a subscription, gated: what the publisher, the
    result buffer and user callbacks subscribe to.

    The valve reads at most one source at a time (:meth:`connect`) and is
    itself the stream its items come out of, so an open valve costs one call
    per item or burst.  A subscription keeps its valve for its whole life: a
    recovery redeployment re-points it at the replacement's root stream, so
    its subscribers, retained items and counts stay where they are.  While
    paused, up to ``max_pause_buffer`` items are retained (oldest evicted
    beyond that) and flushed on resume, so a paused subscription loses
    nothing within its retention window and needs no redeployment.  The
    inherited :meth:`~repro.streams.stream.Stream.emit` bypasses the gate
    (:meth:`resume` flushes the retained items through it).
    """

    __slots__ = ("source", "paused", "items_delivered", "dropped_while_paused", "_pending", "_max_pause_buffer",
                 "_eos_pending", "_unsubscribe")

    def __init__(
        self,
        stream_id: str,
        peer_id: str | None = None,
        max_pause_buffer: int = DEFAULT_PAUSE_BUFFER,
    ) -> None:
        super().__init__(stream_id, peer_id)
        self.source: Stream | None = None
        self.paused = False
        self.items_delivered = 0
        self.dropped_while_paused = 0
        #: what a pause retains, built at the first retained item
        self._pending: deque[Element] | None = None
        self._max_pause_buffer = max_pause_buffer
        self._eos_pending = False
        self._unsubscribe: Callable[[], None] | None = None

    def connect(self, source: Stream) -> Callable[[], None]:
        """Read ``source`` instead of the current source, if any; returns the
        unsubscriber that stops reading it."""
        if self._unsubscribe is not None:
            self._unsubscribe()
        self.source = source
        self._unsubscribe = source.subscribe(self._receive)
        return self._unsubscribe

    def disconnect(self) -> None:
        """Stop reading the current source: what it emits from now on reaches
        nobody, and the valve stays open for the next :meth:`connect`."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self.source = self._unsubscribe = None

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
            pending = self._pending
            if pending is None:
                pending = self._pending = deque(maxlen=self._max_pause_buffer)
            elif len(pending) == self._max_pause_buffer:
                self.dropped_while_paused += 1
            pending.append(item)
            return
        if self.closed:
            raise StreamClosedError(f"stream {self.qualified_id} is closed")
        self.items_delivered += 1
        stats = self.stats
        stats.items += 1
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
            if self.paused or self.closed:
                break
            delivered += 1
            for subscriber in subscribers:
                subscriber(item)
        self.items_delivered += delivered
        self.stats.items += delivered
        if not (delivered and self.closed):  # closed by a subscriber's cancel: detached, the rest is not offered
            for item in items[delivered:]:
                self._receive(item)

    _receive.batch = _receive_many  # type: ignore[attr-defined]  # see Stream.emit_trusted

    @property
    def pending_count(self) -> int:
        """Items retained while paused, not yet flushed."""
        return len(self._pending) if self._pending is not None else 0

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
        pending = self._pending
        while pending and not self.paused:
            self.items_delivered += 1
            self.emit(pending.popleft())
        if self._eos_pending and not self.paused:
            self._eos_pending = False
            self.close()


#: ``_Entry.held`` of an entry nothing holds
_NOBODY = object()


class _Entry:
    """``held`` is ``_NOBODY``, the one holder, or from a second holder on a
    set of them: nearly every resource has one consumer."""

    __slots__ = ("held", "undo", "inputs")

    def __init__(self, undo: Iterable[UndoAction], inputs: Sequence[object]) -> None:
        self.held: object = _NOBODY
        self.undo = undo
        self.inputs = inputs


class ResourceLedger:
    """Reference-counted registry of deployed resources: the deployment graph.

    Keys are opaque hashable identities; the deployer's are told apart by
    shape -- ``(peer, stream)`` for a deployed stream, ``("proxy", consumer,
    producer, stream)`` for a channel subscription, ``("sub", sub_id,
    epoch)`` for a subscription terminal.  An entry is registered with its
    undo actions and the keys it consumes; it holds each of those inputs
    with its own key as holder, so releases are idempotent per consumer and
    the holders of a key are the keys that consume it.  When the last holder
    releases an entry, its undo actions run in registration order and then
    its inputs are released in order, which cascades down the graph.
    """

    def __init__(self) -> None:
        self._entries: dict[object, _Entry] = {}
        self.teardowns = 0

    # -- registration ----------------------------------------------------------

    def known(self, key: object) -> bool:
        return key in self._entries

    def register(
        self, key: object, undo: Iterable[UndoAction] = (), inputs: Sequence[object] = ()
    ) -> bool:
        """Create ``key``'s entry, holding every key of ``inputs``; False (and
        nothing changes) when ``key`` is already registered.

        ``undo`` runs, then ``inputs`` are released, when the last holder of
        ``key`` leaves; it is kept, not copied, and iterated only then, so
        actions a caller appends after registering run too, and a record
        that yields its steps reads its state then.  An input nobody
        registered (a stream advertised outside the deployer) gets an entry
        with nothing to undo.
        """
        if key in self._entries:
            return False
        self._entries[key] = _Entry(undo, inputs)
        for input_key in inputs:
            self.retain(input_key, key)
        return True

    # -- reference counting ----------------------------------------------------

    def retain(self, key: object, holder: object) -> None:
        """Record that ``holder`` depends on the resource ``key``."""
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _Entry((), ())
        held = entry.held
        if type(held) is set:  # a key is hashable, so never a set itself
            held.add(holder)
        elif held is _NOBODY or held == holder:
            entry.held = holder
        else:
            entry.held = {held, holder}

    def release(self, key: object, holder: object = None) -> bool:
        """Drop ``holder``'s reference; returns True when this tore ``key`` down.

        An entry nothing holds (a subscription terminal) is torn down by
        ``release(key)``; releasing a key that is gone is harmless.
        """
        entry = self._entries.get(key)
        if entry is None:
            return False
        held = entry.held
        if type(held) is set:
            held.discard(holder)
            if held:
                return False
        elif held is not _NOBODY and held != holder:
            return False
        del self._entries[key]
        self.teardowns += 1
        run_all(entry.undo, self.release, entry.inputs, key)
        return True

    def holders(self, key: object) -> set[object]:
        """The keys holding ``key``, as a fresh set."""
        entry = self._entries.get(key)
        held = entry.held if entry is not None else _NOBODY
        if type(held) is set:
            return set(held)
        return set() if held is _NOBODY else {held}

    def keys(self) -> list[object]:
        """All currently registered resource keys (recovery scans these)."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"ResourceLedger(entries={len(self._entries)}, teardowns={self.teardowns})"
