"""Reliable control plane: route index mutations over RPC to their DHT home.

With ``reliable_control=True`` a :class:`P2PMSystem` stops mutating the
KadoP-backed Stream Definition Database in place.  Instead each publication
or retraction travels as an RPC from the peer that owns the description to
the document's DHT home peer (``ring.lookup("doc:<doc_id>")``), through the
full retry/idempotency/circuit-breaker machinery of
:mod:`repro.net.rpc` -- so a lossy network can no longer silently swallow a
control operation: the op either lands or the caller gets a typed
:class:`~repro.net.errors.RpcError`.

The index object itself stays shared in-process (the simulation's stand-in
for KadoP's replicated storage); what the router adds is the *message
round-trip* and its failure modes.  The router is handed the description
record and renders it only as the RPC payload; the home peer stores the
record decoded from that payload.
Operations issued by a peer that is not currently alive (teardown of a
dead incarnation) fall back to a direct local mutation -- bookkeeping for
state the failure already invalidated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.monitor.stream_db import ReplicaDescription, StreamDescription, decode_description
from repro.net.errors import PayloadError, RpcError
from repro.xmlmodel.tree import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.p2pm_peer import P2PMSystem

#: RPC method names of the control plane.
RPC_KADOP_PUBLISH = "kadop.publish"
RPC_KADOP_RETRACT = "kadop.retract"
RPC_CHANNEL_SUBSCRIBE = "channel.subscribe"
RPC_CHANNEL_UNSUBSCRIBE = "channel.unsubscribe"
RPC_DEPLOY_PREPARE = "deploy.prepare"


def register_control_methods(peer) -> None:
    """Expose the control-plane RPC methods on one P2PM peer.

    ``peer`` is a :class:`~repro.monitor.p2pm_peer.P2PMPeer`; handlers run
    at the *receiving* peer and raise into typed
    :class:`~repro.net.errors.RpcRemoteError` at the caller.
    """
    system = peer.system
    registry = peer.net.channels
    rpc = peer.rpc

    def kadop_publish(params: Element, source: str) -> Element:
        (doc_id,) = _required(params, "docId", child=True)
        system.kadop.publish({doc_id: decode_description(params.children[0])})
        return Element("stored", {"docId": doc_id})

    def kadop_retract(params: Element, source: str) -> Element:
        removed = system.kadop.unpublish(*_required(params, "docId"))
        return Element("result", {"removed": "1" if removed else "0"})

    def channel_subscribe(params: Element, source: str) -> Element:
        channel_id, subscriber = _required(params, "channelId", "subscriber")
        registry.admit_subscriber(channel_id, subscriber)
        return Element("subscribed", {"channelId": channel_id})

    def channel_unsubscribe(params: Element, source: str) -> Element:
        channel_id, subscriber = _required(params, "channelId", "subscriber")
        registry.drop_subscriber(channel_id, subscriber)
        return Element("unsubscribed", {"channelId": channel_id})

    def deploy_prepare(params: Element, source: str) -> Element:
        # reaching the handler at all is the point: the manager proves the
        # placement peer is up and reachable before instantiating anything
        return Element("ready", {"peer": peer.peer_id, "subId": _required(params, "subId")[0]})

    rpc.register(RPC_KADOP_PUBLISH, kadop_publish)
    rpc.register(RPC_KADOP_RETRACT, kadop_retract)
    rpc.register(RPC_CHANNEL_SUBSCRIBE, channel_subscribe)
    rpc.register(RPC_CHANNEL_UNSUBSCRIBE, channel_unsubscribe)
    rpc.register(RPC_DEPLOY_PREPARE, deploy_prepare)


def _required(params: Element, *names: str, child: bool = False) -> list[str]:
    """``params``' attributes ``names``; a payload without one of them, or with
    ``child`` without a child element, is refused with a :class:`PayloadError`."""
    for name in names:
        if name not in params.attrib:
            raise PayloadError(params.tag, name)
    if child and not params.children:
        raise PayloadError(params.tag, "a child element")
    return [params.attrib[name] for name in names]


class ControlPlaneRouter:
    """Routes Stream Definition Database mutations to their DHT home peer.

    Plugged into :attr:`StreamDefinitionDatabase.router`; see the module
    docstring for semantics.
    """

    def __init__(self, system: "P2PMSystem") -> None:
        self.system = system

    # -- routing helpers ---------------------------------------------------- #

    def _home_peer(self, doc_id: str) -> str | None:
        ring = self.system.kadop.ring
        if len(ring) == 0:
            return None
        home = ring.lookup(f"doc:{doc_id}").node_id
        if self.system.has_peer(home) and self.system.is_alive(home):
            return home
        return None

    def _via_peer(self, peer_id: str):
        """The issuing P2PM peer, when it can actually transmit."""
        if self.system.has_peer(peer_id) and self.system.is_alive(peer_id):
            return self.system.peer(peer_id)
        return None

    # -- StreamDefinitionDatabase router protocol --------------------------- #

    def publish_document(self, record: StreamDescription | ReplicaDescription, doc_id: str, owner: str) -> None:
        """Publish ``record`` via RPC from ``owner``, the peer it describes
        as its provider, to the document's home.

        An :class:`RpcError` propagates to the caller (a failed publication
        must fail the deployment, not silently skip the advertisement); the
        direct fallback, which stores ``record`` itself, only covers
        documents whose owner is not a live network peer (seed data, tests
        publishing out-of-band).
        """
        via = self._via_peer(owner)
        home = self._home_peer(doc_id)
        if via is None or home is None:
            self.system.kadop.publish({doc_id: record})
            return
        via.rpc.call_sync(
            home,
            RPC_KADOP_PUBLISH,
            Element("publish", {"docId": doc_id}, [record.to_element()]),
        )

    def retract_document(self, doc_id: str, owner: str | None) -> bool:
        """Retract via RPC from ``owner``, the peer that published the
        document (None when the database does not know it); falls back to a
        direct unpublish on RPC failure.

        Retraction is teardown bookkeeping: when the RPC cannot complete
        (circuit open towards a dead home, retries exhausted) the entry is
        removed locally so reuse stops matching a stream that is gone --
        the anti-entropy a real KadoP node would perform on its own copy.
        """
        via = self._via_peer(owner)
        home = self._home_peer(doc_id)
        if via is None or home is None:
            return self.system.kadop.unpublish(doc_id)
        try:
            result = via.rpc.call_sync(
                home, RPC_KADOP_RETRACT, Element("retract", {"docId": doc_id})
            )
        except RpcError:
            return self.system.kadop.unpublish(doc_id)
        return result is not None and result.attrib.get("removed") == "1"
