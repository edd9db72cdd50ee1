"""The public handle on a submitted subscription.

``P2PMPeer.subscribe()`` / ``SubscriptionManager.submit()`` return a
:class:`SubscriptionHandle` instead of the raw deployment state: results are
consumed through a bounded buffer or callbacks (never an unbounded list),
and the paper's full subscription lifecycle (Section 3.1) is driven through
``pause()`` / ``resume()`` / ``cancel()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.streams.item import EOS
from repro.streams.stream import Stream
from repro.xmlmodel.tree import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.plan import PlanNode
    from repro.monitor.deployment import DeployedTask
    from repro.monitor.manager import SubscriptionManager
    from repro.monitor.subscription import Subscription
    from repro.publishers import Publisher

ResultCallback = Callable[[Element], None]


class SubscriptionHandle:
    """Everything a client may do with a running subscription.

    The handle is a thin, stateless view over the Subscription Database
    record and the deployed task; two handles for the same ``sub_id`` are
    interchangeable.
    """

    def __init__(self, manager: "SubscriptionManager", record: "Subscription") -> None:
        self._manager = manager
        self._record = record

    # -- identity & state ------------------------------------------------------

    @property
    def sub_id(self) -> str:
        return self._record.sub_id

    @property
    def status(self) -> str:
        """Current lifecycle state: pending, deployed, paused, recovering or
        cancelled.  ``recovering`` means a peer the subscription spans has
        failed and the recovery layer is redeploying (or waiting for a
        pending source peer to revive)."""
        return self._record.status

    @property
    def is_active(self) -> bool:
        """True while the subscription is deployed, paused or recovering."""
        from repro.monitor.subscription import DEPLOYED, PAUSED, RECOVERING

        return self._record.status in (DEPLOYED, PAUSED, RECOVERING)

    @property
    def is_recovering(self) -> bool:
        """True while a peer failure is being healed for this subscription."""
        from repro.monitor.subscription import RECOVERING

        return self._record.status == RECOVERING

    @property
    def task(self) -> "DeployedTask | None":
        """The deployment-side state (advanced use; prefer the handle API)."""
        return self._record.task

    # -- deployment views ------------------------------------------------------

    @property
    def plan(self) -> "PlanNode | None":
        task = self._record.task
        return task.plan if task is not None else self._record.plan

    @property
    def reuse_report(self):
        task = self._require_task()
        return task.reuse_report

    @property
    def publisher(self) -> "Publisher | None":
        return self._record.publisher

    @property
    def channels_created(self) -> list[str]:
        return self._require_task().channels_created

    @property
    def operator_count(self) -> int:
        return self._require_task().operator_count

    def peers_involved(self) -> list[str]:
        return self._require_task().peers_involved()

    @property
    def output_stream(self) -> Stream | None:
        """The raw plan-output stream at the manager peer: what the valve
        reads (``None`` while no deployment runs)."""
        return self._record.valve.source

    @property
    def delivery_stream(self) -> Stream:
        """The stream results are delivered on: the valve, one stream for the
        subscription's whole life (it pauses with the subscription)."""
        return self._record.valve

    # -- results ---------------------------------------------------------------

    def results(self) -> list[Element]:
        """Snapshot of the bounded result buffer, oldest first.

        Buffering is opt-in: submit the subscription with ``max_results=N``.
        Without it, consume results incrementally through :meth:`on_result`.
        """
        buffer = self._record.results
        if buffer is None:
            raise RuntimeError(
                f"subscription {self.sub_id!r} was submitted without result "
                "buffering; pass max_results=N to subscribe()/submit() or "
                "attach a callback with on_result()"
            )
        return buffer.snapshot()

    def __iter__(self) -> Iterator[Element]:
        return iter(self.results())

    def on_result(self, callback: ResultCallback) -> Callable[[], None]:
        """Invoke ``callback`` for every delivered result; returns an unsubscriber.

        Callbacks attach to the delivery stream, after the pause/resume
        valve: a paused subscription delivers nothing until resumed.
        """

        def deliver(item: Any) -> None:
            if item is not EOS:
                callback(item)

        return self._record.valve.subscribe(deliver)

    def on_recovery(self, callback) -> Callable[[], None]:
        """Invoke ``callback(event)`` whenever this subscription is recovered.

        ``event`` is a :class:`~repro.monitor.recovery.RecoveryEvent`
        describing the trigger (peer failure or revival) and the outcome
        (``redeployed``, ``degraded``, ``waiting``).  Returns an
        unsubscriber.  ``on_result`` callbacks survive recovery: the delivery
        stream they are on outlives every deployment.
        """
        sub_id = self.sub_id

        def filtered(event) -> None:
            if event.sub_id == sub_id:
                callback(event)

        return self._manager.peer.system.recovery.subscribe(filtered)

    # -- lifecycle -------------------------------------------------------------

    def cancel(self) -> bool:
        """Tear down everything this subscription exclusively owns.

        Operators are detached, exclusively-owned streams closed, Stream
        Definition Database advertisements retracted, and shared resources
        (reused streams, shared alerters) merely released -- they survive
        until their last subscriber cancels.  Returns False when already
        cancelled.
        """
        return self._manager.cancel(self.sub_id)

    def pause(self) -> None:
        """Stop result delivery without tearing the deployment down."""
        self._manager.pause(self.sub_id)

    def resume(self) -> None:
        """Restart delivery, flushing items retained while paused."""
        self._manager.resume(self.sub_id)

    # -- accounting ------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Counters describing the subscription's deployment and delivery.

        The ``reliability`` sub-dict surfaces the system-wide transport
        counters (RPC retries/timeouts, circuit-breaker trips, heartbeats,
        channel retransmissions/replays/sheds) plus recovery-listener
        failures -- system-wide because transport and detection are shared
        infrastructure, not per-subscription state.
        """
        task = self._require_task()
        valve = self._record.valve
        buffer = self._record.results
        system = self._manager.peer.system
        reliability: dict[str, int] = dict(
            system.network.stats.reliability_snapshot()
        )
        reliability["listener_errors"] = system.recovery.listener_errors
        return {
            "sub_id": self.sub_id,
            "status": self.status,
            "items_delivered": valve.items_delivered,
            "items_pending": valve.pending_count,
            "dropped_while_paused": valve.dropped_while_paused,
            "results_buffered": len(buffer) if buffer is not None else 0,
            "results_dropped": buffer.dropped if buffer is not None else 0,
            "operators": task.operator_count,
            "peers": task.peers_involved(),
            "channels": list(task.channels_created),
            "nodes_reused": (
                task.reuse_report.nodes_reused if task.reuse_report is not None else 0
            ),
            "reliability": reliability,
            # system-wide like "reliability": the CSE table and plan cache
            # are shared across every co-deployed subscription
            "compile": system.compile_snapshot(),
        }

    # -- internals -------------------------------------------------------------

    def _require_task(self) -> "DeployedTask":
        task = self._record.task
        if task is None:
            raise RuntimeError(f"subscription {self.sub_id!r} is not deployed")
        return task

    def __repr__(self) -> str:
        return f"SubscriptionHandle({self.sub_id!r}, status={self.status!r})"
