"""Common behaviour of all alerters."""

from __future__ import annotations

from repro.streams.stream import Stream
from repro.xmlmodel.tree import Element


class Alerter:
    """Base class: an event source producing a stream of XML alert items."""

    #: Alerter kind, as referenced by P2PML FOR clauses (e.g. ``inCOM``).
    kind = "alerter"

    def __init__(self, peer_id: str, stream: Stream | None = None) -> None:
        self.peer_id = peer_id
        self.output = stream if stream is not None else Stream(f"{self.kind}", peer_id)
        self.alerts_produced = 0

    def emit_alert(self, alert: Element) -> None:
        """Publish one alert on the output stream."""
        self.alerts_produced += 1
        self.output.emit(alert)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(peer={self.peer_id!r}, alerts={self.alerts_produced})"
