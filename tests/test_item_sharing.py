"""A stream item crosses a simulated link by reference.

The channel fan-out (``ChannelRegistry._forward_batch``) hands the wire the
emitted trees themselves: every subscriber, local or remote, receives the
object the producer emitted.  That is only sound while nothing mutates an
item once it is emitted (``repro.xmlmodel.tree``), so this module checks the
contract instead of paying for it: every item that crossed a link is held to
the structure and the weight it had when it was sent, over the ``fanout``
and ``ingest`` benchmark cycles and the single-process chaos scenarios.
"""

from __future__ import annotations

import random

import pytest

from perf.harness import PhaseClock, Tally, run_cycle
from perf.workloads import WORKLOADS
from repro.net.channel import MSG_ITEM, MSG_ITEMS, ChannelRegistry
from repro.net.peer import Peer
from repro.net.simnet import SimNetwork
from repro.scenarios.catalog import make_scenario
from repro.streams.stream import collect
from repro.xmlmodel import parse_xml, to_xml
from repro.xmlmodel.tree import Element

#: single-process catalog scenarios at the seeds their golden traces pin
SCENARIOS = [
    ("flaky-network", 0),
    ("partition-heal", 7),
    ("lossy-network", 0),
    ("churn-soak", 42),
    ("churn-failover", 0),
    ("silent-kill", 0),
    ("lossy-control-plane", 0),
]


@pytest.fixture
def sent(monkeypatch):
    """Every item the fan-out puts on a link: (item, structure, weight) when sent."""
    records: list[tuple[Element, tuple, int]] = []
    forward_batch = ChannelRegistry._forward_batch

    def recording(self, channel, items, count=1):
        if channel.subscribers:
            records.extend((item, item.structural_key(), item.weight()) for item in items)
        return forward_batch(self, channel, items, count)

    monkeypatch.setattr(ChannelRegistry, "_forward_batch", recording)
    return records


def assert_unchanged(records: list[tuple[Element, tuple, int]]) -> None:
    assert records, "nothing crossed a link: the check would be vacuous"
    for item, structure, weight in records:
        assert item.structural_key() == structure
        assert item.weight() == weight == parse_xml(to_xml(item)).weight()


class TestSentItemsStayUnchanged:
    @pytest.mark.parametrize("name", ["fanout", "ingest"])
    def test_benchmark_cycle(self, sent, name: str):
        workload = WORKLOADS[name]
        plan = workload.deal(random.Random(f"{name}/1/0"), workload.sizes(0.1))
        tally = Tally()
        cycle = run_cycle(workload, plan, PhaseClock(), tally, check_payloads=True)
        cycle.close()
        assert tally.failed == 0, tally.first_error
        assert_unchanged(sent)

    @pytest.mark.parametrize("name,seed", SCENARIOS)
    def test_chaos_scenario(self, sent, name: str, seed: int):
        result = make_scenario(name, seed=seed).run()
        assert result.ok, [inv for inv in result.invariants if not inv.ok]
        assert_unchanged(sent)


def publisher_and_subscribers(reliable: bool, *subscribers: str):
    network = SimNetwork(seed=5)
    publisher = Peer("pub", network)
    publisher.channels.reliable = reliable
    stream = publisher.create_stream("s")
    publisher.publish_channel("ch", stream)
    received = {}
    for peer_id in subscribers:
        peer = network.peer(peer_id) if network.has_peer(peer_id) else Peer(peer_id, network)
        peer.channels.reliable = reliable
        received[peer_id] = collect(peer.subscribe_channel("pub", "ch"))
    network.run()
    return network, publisher, stream, received


class TestSharedObjects:
    def test_a_burst_frame_carries_the_emitted_objects(self):
        network, _, stream, received = publisher_and_subscribers(False, "r0", "r1")
        network.trace_enabled = True
        items = [Element("alert", {"n": str(n)}, [Element("body", text="x")]) for n in range(3)]
        stream.emit_many(items)
        network.run()
        frames = [message for message in network.trace if message.kind == MSG_ITEMS]
        assert len(frames) == 2
        for frame in frames:
            assert all(child is item for child, item in zip(frame.payload.children, items, strict=True))
            # the wrapper owns its list of children; the caller's list is left alone
            assert frame.payload.children is not items
        for delivered in received.values():
            assert all(got is item for got, item in zip(delivered, items, strict=True))

    def test_a_reliable_registry_retransmits_the_same_objects(self):
        network, publisher, stream, received = publisher_and_subscribers(True, "r0")
        network.fail_peer("r0", notify=False)  # down, not yet confirmed dead
        item = Element("alert", {"n": "0"}, [Element("body", text="x")])
        stream.emit(item)
        network.run()
        network.revive_peer("r0", notify=False)
        network.trace_enabled = True
        publisher.channels.retransmit_tick()
        network.run()
        resent = [message for message in network.trace if message.kind == MSG_ITEM]
        assert len(resent) == 1 and resent[0].payload.children[0] is item
        assert network.stats.items_retransmitted == 1
        assert len(received["r0"]) == 1 and received["r0"][0] is item

    def test_a_local_and_a_remote_subscriber_see_the_same_object(self):
        network, _, stream, received = publisher_and_subscribers(False, "pub", "r0")
        item = Element("alert", {"n": "0"}, [Element("body", text="x")])
        stream.emit(item)
        network.run()
        assert received["pub"] == received["r0"] == [item]
        assert received["pub"][0] is item and received["r0"][0] is item

    def test_a_takeover_claims_an_item_emitted_twice_twice(self):
        network, publisher, stream, _ = publisher_and_subscribers(True, "r0")
        network.fail_peer("r0", notify=False)
        publisher.channels.handle_peer_death("r0")
        item = Element("alert", {"n": "0"})
        stream.emit(item)
        stream.emit(item)
        network.run()
        taker = Peer("taker", network)
        taker.channels.reliable = True
        received = collect(taker.subscribe_channel("pub", "ch"))
        network.run()
        publisher.channels.retransmit_tick()
        network.run()
        # one claim per emit, not per object
        assert len(received) == 2 and all(got is item for got in received)
        assert network.stats.items_replayed == 2
