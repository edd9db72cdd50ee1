"""A control-plane RPC whose payload lacks what its handler reads is refused.

Each of the five handlers of ``monitor/control.py`` is sent its payload with
one attribute (or ``kadop.publish``'s description child) dropped: the caller
gets an ``RpcRemoteError`` naming ``PayloadError``, and nothing is stored,
retracted, admitted or dropped.
"""

import pytest

from repro.monitor import P2PMSystem
from repro.monitor.control import (
    RPC_CHANNEL_SUBSCRIBE,
    RPC_CHANNEL_UNSUBSCRIBE,
    RPC_DEPLOY_PREPARE,
    RPC_KADOP_PUBLISH,
    RPC_KADOP_RETRACT,
)
from repro.monitor.stream_db import StreamDescription
from repro.net.errors import RpcRemoteError
from repro.streams import Stream
from repro.xmlmodel.tree import Element

_DESCRIPTION = StreamDescription("p", "s", False, "Filter", "x", ())

_REFUSED = {
    "publish without docId": (RPC_KADOP_PUBLISH, Element("publish", {}, [_DESCRIPTION.to_element()])),
    "publish without a description": (RPC_KADOP_PUBLISH, Element("publish", {"docId": "stream:s@p"})),
    "retract without docId": (RPC_KADOP_RETRACT, Element("retract")),
    "subscribe without subscriber": (RPC_CHANNEL_SUBSCRIBE, Element("subscribe", {"channelId": "ch"})),
    "subscribe without channelId": (RPC_CHANNEL_SUBSCRIBE, Element("subscribe", {"subscriber": "x"})),
    "unsubscribe without subscriber": (RPC_CHANNEL_UNSUBSCRIBE, Element("unsubscribe", {"channelId": "ch"})),
    "unsubscribe without channelId": (RPC_CHANNEL_UNSUBSCRIBE, Element("unsubscribe", {"subscriber": "m1"})),
    "prepare without subId": (RPC_DEPLOY_PREPARE, Element("prepare")),
}


def _state(system: P2PMSystem) -> tuple:
    kadop = system.kadop
    storage = {node.node_id: dict(node.storage) for node in kadop.ring.nodes()}
    channel = system.peer("s0").net.channels.published("ch")
    return storage, dict(kadop.records), channel.sorted_subscribers()


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_a_payload_without_what_its_handler_reads_is_refused(case):
    system = P2PMSystem(seed=5, reliable_control=True)
    for peer_id in ("s0", "m1"):
        system.add_peer(peer_id)
    system.kadop.publish({"stream:s@p": _DESCRIPTION})
    channels = system.peer("s0").net.channels
    channels.publish("ch", Stream("ch"))
    channels.admit_subscriber("ch", "m1")
    before = _state(system)
    method, payload = _REFUSED[case]
    with pytest.raises(RpcRemoteError, match="PayloadError"):
        system.peer("m1").rpc.call_sync("s0", method, payload)
    assert _state(system) == before
