"""Communication accounting for the simulated network.

The optimisation questions the paper cares about -- "save on data transfers",
"balance the load", "select a provider that is close and not overloaded" --
are all answered by reading these counters after running a scenario.

:meth:`NetworkStats.record` sits on the per-message send path: it bumps the
two totals and the counters of the message's link (one dict lookup).  The
per-peer breakdowns are derived from the links when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LinkStats:
    """Counters for one directed (source, destination) pair."""

    messages: int = 0
    bytes: int = 0


class NetworkStats:
    """Aggregated counters for the whole simulated network."""

    __slots__ = (
        "total_messages",
        "total_bytes",
        "_links",
        "rpc_calls",
        "rpc_retries",
        "rpc_timeouts",
        "rpc_rejected",
        "circuits_opened",
        "heartbeats_sent",
        "items_retransmitted",
        "items_replayed",
        "items_shed",
        "acks_sent",
    )

    def __init__(self) -> None:
        self.total_messages = 0
        self.total_bytes = 0
        self._links: dict[tuple[str, str], LinkStats] = {}
        # reliability-layer counters (RPC, heartbeats, reliable channels);
        # kept out of snapshot() so message accounting stays comparable
        # across reliable and plain runs
        self.rpc_calls = 0
        self.rpc_retries = 0
        self.rpc_timeouts = 0
        self.rpc_rejected = 0
        self.circuits_opened = 0
        self.heartbeats_sent = 0
        self.items_retransmitted = 0
        self.items_replayed = 0
        self.items_shed = 0
        self.acks_sent = 0

    def record(self, source: str, destination: str, size: int) -> None:
        """Hot path: called once per scheduled message (the perfect-network
        loop of ``SimNetwork.send_many`` inlines this rule)."""
        self.total_messages += 1
        self.total_bytes += size
        link = self._links.get((source, destination))
        if link is None:
            link = self._links[(source, destination)] = LinkStats()
        link.messages += 1
        link.bytes += size

    # -- views, computed from the links on read -------------------------------- #

    @property
    def links(self) -> dict[tuple[str, str], LinkStats]:
        return self._links

    def _per_peer(self, end: int) -> dict[str, int]:
        counts: dict[str, int] = {}
        for link, stats in self._links.items():
            counts[link[end]] = counts.get(link[end], 0) + stats.messages
        return counts

    @property
    def per_peer_sent(self) -> dict[str, int]:
        return self._per_peer(0)

    @property
    def per_peer_received(self) -> dict[str, int]:
        return self._per_peer(1)

    def bytes_between(self, source: str, destination: str) -> int:
        link = self.links.get((source, destination))
        return link.bytes if link else 0

    def messages_between(self, source: str, destination: str) -> int:
        link = self.links.get((source, destination))
        return link.messages if link else 0

    def bytes_sent_by(self, peer_id: str) -> int:
        return sum(
            stats.bytes for (src, _), stats in self.links.items() if src == peer_id
        )

    def bytes_received_by(self, peer_id: str) -> int:
        return sum(
            stats.bytes for (_, dst), stats in self.links.items() if dst == peer_id
        )

    def busiest_peer(self) -> str | None:
        """Peer with the highest number of sent+received messages."""
        load = self.per_peer_sent
        for peer, count in self.per_peer_received.items():
            load[peer] = load.get(peer, 0) + count
        if not load:
            return None
        return max(load, key=lambda peer: (load[peer], peer))

    def reset(self) -> None:
        NetworkStats.__init__(self)

    def snapshot(self) -> dict[str, int]:
        return {"messages": self.total_messages, "bytes": self.total_bytes}

    def reliability_snapshot(self) -> dict[str, int]:
        """Counters of the reliability substrate (RPC, heartbeats, channels).

        Separate from :meth:`snapshot` so existing message/byte comparisons
        stay valid; all-zero on runs that never enable the reliable paths.
        """
        return {
            "rpc_calls": self.rpc_calls,
            "rpc_retries": self.rpc_retries,
            "rpc_timeouts": self.rpc_timeouts,
            "rpc_rejected": self.rpc_rejected,
            "circuits_opened": self.circuits_opened,
            "heartbeats_sent": self.heartbeats_sent,
            "items_retransmitted": self.items_retransmitted,
            "items_replayed": self.items_replayed,
            "items_shed": self.items_shed,
            "acks_sent": self.acks_sent,
        }
