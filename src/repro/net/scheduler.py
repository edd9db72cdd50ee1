"""The event-scheduler core of the simulated network.

:class:`EventScheduler` owns the three pieces of state that make a run
deterministic -- the simulated clock, the event heap and the tie-breaking
sequence counter -- and nothing else.  :class:`~repro.net.simnet.SimNetwork`
layers the *transport* semantics (latency, faults, partitions, peer
liveness) on top.  Events are always processed in ``(time, sequence)``
order, and the sequence number is unique per scheduler, so heap entries
themselves are never compared.
"""

from __future__ import annotations

import heapq
from typing import Callable

#: Heap entries are ``(fire_at, sequence, event)``; the event is opaque to
#: the scheduler (SimNetwork enqueues Messages and Timers).
Entry = tuple[float, int, object]


class EventScheduler:
    """A deterministic (time, sequence)-ordered event heap with a clock."""

    __slots__ = ("now", "queue", "sequence")

    def __init__(self) -> None:
        #: the simulated clock; advances monotonically as events are popped
        self.now = 0.0
        #: heap of (fire_at, sequence, event)
        self.queue: list[Entry] = []
        #: unique per-scheduler tie-breaker (also the total event count)
        self.sequence = 0

    def push(self, fire_at: float, event: object) -> None:
        """Enqueue ``event`` to fire at simulated time ``fire_at``."""
        self.sequence += 1
        heapq.heappush(self.queue, (fire_at, self.sequence, event))

    def __len__(self) -> int:
        return len(self.queue)

    def step(self, handler: Callable[[object], None]) -> bool:
        """Pop and dispatch the next event.  Returns False when idle.

        The clock advances to the event's fire time *before* the handler
        runs (never backwards: a same-time tie keeps the current clock).
        """
        if not self.queue:
            return False
        fire_at, _, event = heapq.heappop(self.queue)
        if fire_at > self.now:
            self.now = fire_at
        handler(event)
        return True

    def drain(self, handler: Callable[[object], None], max_steps: int | None = None) -> int:
        """Dispatch events until the heap empties (or ``max_steps`` is hit).

        Handlers may push further events; those are processed too.  Returns
        the number of events dispatched.  The loop stays flat -- one heap
        pop and one handler call per event -- because it brackets every hop
        of the delivery path.
        """
        queue = self.queue
        heappop = heapq.heappop
        dispatched = 0
        while queue:
            if max_steps is not None and dispatched >= max_steps:
                break
            fire_at, _, event = heappop(queue)
            if fire_at > self.now:
                self.now = fire_at
            handler(event)
            dispatched += 1
        return dispatched


__all__ = ["EventScheduler"]
