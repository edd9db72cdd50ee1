"""Unit tests for the Reuse engine and related monitor pieces."""

import pytest

from repro.algebra.plan import ALERTER, EXISTING, FILTER, JOIN, PUBLISH, PlanNode
from repro.filtering import FilterSubscription, SimpleCondition
from repro.monitor import P2PMSystem, ReuseEngine, StreamDefinitionDatabase
from repro.monitor.stream_db import operator_spec
from repro.net import SimNetwork, Peer
from repro.workloads import ChaosFeedWorkload
from repro.workloads.chaos_feed import CHAOS_FUNCTION


def alerter(peer="a.com", kind="outCOM"):
    return PlanNode(ALERTER, {"alerter": kind, "peer": peer, "var": "c1"}, placement=peer)


def filter_over(child, value="GetTemperature"):
    sub = FilterSubscription("f", [SimpleCondition("callMethod", "=", value)])
    return PlanNode(FILTER, {"subscription": sub, "var": "c1"}, [child])


class TestReuseEngine:
    def test_nothing_to_reuse_on_empty_database(self):
        engine = ReuseEngine(StreamDefinitionDatabase())
        plan = PlanNode(PUBLISH, {"mode": "local", "target": "t"}, [filter_over(alerter())])
        rewritten, report = engine.apply(plan)
        assert report.nodes_reused == 0
        assert rewritten.count(EXISTING) == 0
        assert report.savings_ratio == 0.0

    def test_alerter_reused_when_declared(self):
        db = StreamDefinitionDatabase()
        db.publish_node(alerter(), "a.com", "outCOM", [])
        engine = ReuseEngine(db)
        plan = PlanNode(PUBLISH, {"mode": "local", "target": "t"}, [filter_over(alerter())])
        rewritten, report = engine.apply(plan)
        assert report.nodes_reused == 1
        existing = rewritten.find_all(EXISTING)
        assert len(existing) == 1
        assert existing[0].params["peer"] == "a.com"
        assert existing[0].params["stream_id"] == "outCOM"

    def test_whole_subtree_reused_when_filter_also_exists(self):
        db = StreamDefinitionDatabase()
        db.publish_node(alerter(), "a.com", "outCOM", [])
        the_filter = filter_over(alerter())
        db.publish_node(the_filter, "a.com", "f1", [("a.com", "outCOM")])
        engine = ReuseEngine(db)
        plan = PlanNode(PUBLISH, {"mode": "local", "target": "t"}, [filter_over(alerter())])
        rewritten, report = engine.apply(plan)
        # the filter subtree collapses to a single EXISTING node
        assert rewritten.children[0].kind == EXISTING
        assert rewritten.children[0].params["stream_id"] == "f1"
        assert report.nodes_reused == 2

    def test_different_filter_spec_not_reused(self):
        db = StreamDefinitionDatabase()
        db.publish_node(alerter(), "a.com", "outCOM", [])
        db.publish_node(filter_over(alerter()), "a.com", "f1", [("a.com", "outCOM")])
        engine = ReuseEngine(db)
        plan = PlanNode(
            PUBLISH, {"mode": "local", "target": "t"},
            [filter_over(alerter(), value="GetHumidity")],
        )
        rewritten, _ = engine.apply(plan)
        # the alerter is reused but the (different) filter is not
        assert rewritten.children[0].kind == FILTER
        assert rewritten.children[0].children[0].kind == EXISTING

    def test_join_reuse_requires_both_operands(self):
        db = StreamDefinitionDatabase()
        db.publish_node(alerter(), "a.com", "outCOM", [])
        engine = ReuseEngine(db)
        join = PlanNode(
            JOIN,
            {"left_var": "c1", "right_var": "c2", "predicate": []},
            [alerter(), alerter("meteo.com", "inCOM")],
        )
        plan = PlanNode(PUBLISH, {"mode": "local", "target": "t"}, [join])
        rewritten, report = engine.apply(plan)
        assert rewritten.children[0].kind == JOIN
        assert report.nodes_reused == 1  # only the declared alerter

    def test_replica_selection_prefers_close_provider(self):
        db = StreamDefinitionDatabase()
        db.publish_node(alerter(), "a.com", "outCOM", [])
        db.publish_replica("a.com", "outCOM", "near.com", "copy-1")
        network = SimNetwork(seed=1)
        Peer("a.com", network, coordinates=(0.9, 0.9))
        Peer("near.com", network, coordinates=(0.11, 0.1))
        Peer("consumer.com", network, coordinates=(0.1, 0.1))
        engine = ReuseEngine(db, network=network, consumer_peer="consumer.com")
        plan = PlanNode(PUBLISH, {"mode": "local", "target": "t"}, [alerter()])
        rewritten, _ = engine.apply(plan)
        existing = rewritten.find_all(EXISTING)[0]
        assert existing.params["provider_peer"] == "near.com"
        assert existing.params["provider_stream_id"] == "copy-1"
        # the canonical identity still points at the original stream
        assert existing.params["peer"] == "a.com"

    def test_replica_of_unknown_peer_is_skipped(self):
        db = StreamDefinitionDatabase()
        db.publish_node(alerter(), "a.com", "outCOM", [])
        db.publish_replica("a.com", "outCOM", "gone.com", "copy-1")
        network = SimNetwork(seed=1)
        Peer("a.com", network)
        Peer("consumer.com", network)
        engine = ReuseEngine(db, network=network, consumer_peer="consumer.com")
        plan = PlanNode(PUBLISH, {"mode": "local", "target": "t"}, [alerter()])
        rewritten, _ = engine.apply(plan)
        assert rewritten.find_all(EXISTING)[0].params["provider_peer"] == "a.com"

    def test_operator_spec_stability(self):
        assert operator_spec(filter_over(alerter())) == operator_spec(filter_over(alerter("b.com")))
        assert operator_spec(filter_over(alerter())) != operator_spec(
            filter_over(alerter(), value="Other")
        )


class TestReplicaPublication:
    def test_identical_subscriptions_from_one_peer_build_no_replica_chain(self):
        """A consumer whose nearest provider is a replica on its own peer
        reads it locally and publishes no replica of the replica: a thousand
        identical subscriptions at one peer leave one replica per stream it
        reads from a remote peer, not a relay chain a thousand deep."""
        system = P2PMSystem()
        sources = [system.add_peer(f"s{i}").peer_id for i in range(4)]
        monitor = system.add_peer("monitor")
        peers = " ".join(f"<p>{source}</p>" for source in sources)
        text = (
            f'for $x in {CHAOS_FUNCTION}({peers}) where $x.kind = "chaos" '
            "return <seen><src>{$x.source}</src><n>{$x.n}</n></seen>"
        )
        handles = monitor.subscribe_many([text] * 1000)
        system.run()
        counts = [0] * len(handles)
        for index, handle in enumerate(handles):
            handle.on_result(lambda item, i=index: counts.__setitem__(i, counts[i] + 1))
        ChaosFeedWorkload(sources).tick(system, 0)
        system.run()
        assert counts == [len(sources)] * len(handles)
        # a replica's provider key is ("proxy", consumer, producer, stream)
        providers = list(system.replica_providers.values())
        assert len(providers) == 4
        assert all(consumer != producer for _, consumer, producer, _ in providers)


class TestP2PMSystemBasics:
    def test_duplicate_peer_rejected(self):
        system = P2PMSystem()
        system.add_peer("a.com")
        with pytest.raises(ValueError):
            system.add_peer("a.com")

    def test_unknown_peer_lookup(self):
        system = P2PMSystem()
        with pytest.raises(KeyError):
            system.peer("ghost")
        assert not system.has_peer("ghost")

    def test_peers_join_the_kadop_ring(self):
        system = P2PMSystem()
        system.add_peer("a.com")
        system.add_peer("b.com")
        assert "a.com" in system.kadop.ring
        assert system.peer_ids == ["a.com", "b.com"]

    def test_unknown_alerter_kind_rejected(self):
        system = P2PMSystem()
        peer = system.add_peer("a.com")
        with pytest.raises(ValueError):
            peer.get_or_create_alerter("teleport")

    def test_rss_alerter_requires_registered_feed(self):
        system = P2PMSystem()
        peer = system.add_peer("a.com")
        with pytest.raises(ValueError):
            peer.get_or_create_alerter("rssFeed")

    def test_alerter_hook_applies_to_existing_alerters(self):
        system = P2PMSystem()
        peer = system.add_peer("a.com")
        created = peer.get_or_create_alerter("outCOM")
        seen = []
        peer.add_alerter_hook(seen.append)
        assert created in seen
