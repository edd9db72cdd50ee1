"""A precisely controllable alert source for chaos scenarios.

Real workloads (SOAP traffic, RSS churn) are great for realism but poor for
invariants: you cannot easily say *which* alerts must have arrived after a
partition heals.  The chaos feed gives every alert a globally unique
``(source, n)`` identity, records exactly what was emitted and when, and
only drives sources that are currently alive -- so scenario invariants such
as "every alert emitted was delivered exactly once" are checkable by set
comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.alerters.base import Alerter
from repro.alerters.registry import register_alerter
from repro.xmlmodel.tree import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.p2pm_peer import P2PMPeer, P2PMSystem

#: The P2PML function name chaos subscriptions use in their FOR clause.
CHAOS_FUNCTION = "chaosFeed"


class ChaosFeedAlerter(Alerter):
    """Emits numbered ``<alert>`` items on demand (driven by the workload)."""

    kind = CHAOS_FUNCTION

    def emit_numbered(self, n: int) -> Element:
        alert = Element(
            "alert", {"kind": "chaos", "source": self.peer_id, "n": str(n)}
        )
        self.emit_alert(alert)
        return alert


@register_alerter(CHAOS_FUNCTION)
def _make_chaos_feed(peer: "P2PMPeer", function: str) -> Alerter:
    return ChaosFeedAlerter(peer.peer_id)


class ChaosFeedWorkload:
    """Drives the chaos-feed alerters of a set of source peers.

    Each :meth:`tick` makes every *alive* source emit one alert numbered by
    the tick; the emitted ``(source, n)`` pairs are recorded so invariants
    can compare them against what a subscriber received.
    """

    def __init__(self, sources: list[str]) -> None:
        self.sources = list(sources)
        self.emitted: list[tuple[str, int]] = []

    def tick(self, system: "P2PMSystem", tick: int) -> int:
        """Emit one alert per alive source; returns how many were emitted."""
        count = 0
        for source in self.sources:
            if not system.is_alive(source):
                continue
            alerter = system.peer(source).alerter(CHAOS_FUNCTION)
            if alerter is None or alerter.output.closed:
                continue
            assert isinstance(alerter, ChaosFeedAlerter)
            alerter.emit_numbered(tick)
            self.emitted.append((source, tick))
            count += 1
        return count

    def emitted_since(self, tick: int) -> list[tuple[str, int]]:
        """Alerts emitted at or after ``tick`` (post-recovery delivery checks)."""
        return [(source, n) for source, n in self.emitted if n >= tick]
