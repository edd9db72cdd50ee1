"""DHT behaviour under node failure: Chord repair, KadoP re-replication."""

import pytest

from repro.dht import ChordRing, KadopIndex
from repro.monitor.stream_db import StreamDescription


def make_ring(n: int = 8) -> ChordRing:
    ring = ChordRing()
    for i in range(n):
        ring.join(f"node{i}")
    return ring


class TestChordFailure:
    def test_fail_removes_node_and_loses_keys(self):
        ring = make_ring()
        ring.put("some-key", "value")
        owner = ring.lookup("some-key").node_id
        lost = ring.fail(owner)
        assert "some-key" in lost
        assert owner not in ring
        assert ring.get("some-key") is None  # abrupt failure: no transfer happened

    def test_graceful_leave_transfers_but_fail_does_not(self):
        ring = make_ring()
        ring.put("k", "v")
        owner = ring.lookup("k").node_id
        ring.leave(owner)
        assert ring.get("k") == "v"  # leave moved the key to the successor
        second_owner = ring.lookup("k").node_id
        assert ring.fail(second_owner) == ["k"]

    def test_successor_repair_after_failure(self):
        """Lookups still route correctly once the dead node's fingers are gone."""
        ring = make_ring(12)
        victim = ring.lookup("routing-probe").node_id
        ring.fail(victim)
        # every key now resolves to an alive node, via finger routing only
        for i in range(40):
            result = ring.lookup(f"key{i}")
            assert result.node_id in ring.node_ids
            assert victim not in result.path
        # and storing works against the repaired ring
        ring.put("after", "ok")
        assert ring.get("after") == "ok"

    def test_fingers_rebuilt_after_failure(self):
        ring = make_ring(6)
        nodes = list(ring.nodes())
        before = ring._fingers_of(nodes[0])
        victim = before[0].node_id if before[0] is not nodes[0] else nodes[1].node_id
        ring.fail(victim)
        survivor = next(node for node in ring.nodes())
        rebuilt = ring._fingers_of(survivor)
        assert all(finger.node_id != victim for finger in rebuilt)

    def test_fail_unknown_node_raises(self):
        ring = make_ring(2)
        with pytest.raises(KeyError):
            ring.fail("ghost")

    def test_membership_log_records_failures(self):
        ring = ChordRing()
        ring.join("a")
        ring.join("b")
        ring.fail("a")
        assert ring.membership_log == [("join", "a"), ("join", "b"), ("fail", "a")]


def description(peer: str, stream: str, operator: str) -> StreamDescription:
    return StreamDescription(peer, stream, True, operator, "", ())


class TestKadopFailure:
    @pytest.fixture
    def index(self) -> KadopIndex:
        ring = ChordRing()
        for i in range(8):
            ring.join(f"storage{i}")
        index = KadopIndex(ring)
        index.publish({"d1": description("p1", "s1", "inCom")})
        index.publish({"d2": description("p2", "s2", "outCom")})
        index.publish({"d3": description("p3", "s3", "inCom")})
        return index

    def test_all_documents_survive_any_single_failure(self, index):
        for victim in list(index.ring.node_ids):
            if len(index.ring) == 1:
                break
            index.fail_peer(victim)
            assert sorted(index.document_ids) == ["d1", "d2", "d3"]

    def test_queries_still_answered_after_failure(self, index):
        # fail whichever node stores the inCom postings list
        victim = index.ring.lookup("term:tag:inCom").node_id
        restored = index.fail_peer(victim)
        assert restored > 0
        matches = {doc_id for doc_id, _ in index.query("/Stream[Operator/inCom]")}
        assert matches == {"d1", "d3"}

    def test_readvertisement_after_failure(self, index):
        """A description republished after a crash is findable again."""
        victim = index.ring.lookup("doc:d2").node_id
        index.fail_peer(victim)
        # the re-replicated advertisement can still be retracted and replaced
        assert index.unpublish("d2") is True
        index.publish({"d2": description("p2", "s2-v2", "outCom")})
        matches = {doc_id for doc_id, _ in index.query("/Stream[Operator/outCom]")}
        assert matches == {"d2"}
        docs = dict(index.query("/Stream[Operator/outCom]"))
        assert docs["d2"].attrib["StreamId"] == "s2-v2"

    def test_fail_peer_emits_leave_event(self, index):
        events = []
        index.subscribe_membership(events.append)
        index.fail_peer("storage3")
        assert [(e.kind, e.peer_id) for e in events] == [("leave", "storage3")]

    def test_fail_unknown_peer_only_notifies(self, index):
        events = []
        index.subscribe_membership(events.append)
        assert index.fail_peer("never-joined") == 0
        assert [(e.kind, e.peer_id) for e in events] == [("leave", "never-joined")]

    def test_keys_restored_counter(self, index):
        before = index.keys_restored
        victim = index.ring.lookup("doc:d1").node_id
        index.fail_peer(victim)
        assert index.keys_restored > before
