"""The subscription-ingestion fast path (PR 5).

Differential coverage: the StreamDefinitionDatabase's term-lookup probes
must return byte-identical match sets to the XPath-query oracle under
publish / retract / replica / failure churn, ``submit_many`` must be
observationally equivalent to sequential ``submit``, and the reuse signature
cache must never serve a stale rewrite.
"""

import pytest

from repro.algebra.plan import ALERTER, EXISTING, FILTER, PUBLISH, PlanNode, plan_signature
from repro.dht.kadop import KadopIndex
from repro.filtering import FilterSubscription, SimpleCondition
from repro.filtering.conditions import ComputedCondition
from repro.monitor import P2PMSystem, ReuseEngine, StreamDefinitionDatabase
from repro.monitor.reuse import ReuseSignatureCache, reuse_cache_key
from repro.monitor.stream_db import StreamDescription, operator_spec
from repro.net import Peer, SimNetwork

METEO_TEMPLATE = """
for $c1 in outCOM(<p>a.com</p> <p>b.com</p>),
    $c2 in inCOM(<p>meteo.com</p>)
let $duration := $c1.responseTimestamp - $c1.callTimestamp
where
    $duration > {threshold} and
    $c1.callMethod = "GetTemperature" and
    $c1.callee = "meteo.com" and
    $c1.callId = $c2.callId
return
    <incident type="slowAnswer">
        <client>{{$c1.caller}}</client>
    </incident>
by publish as channel "alertQoS";
"""

EDOS_TEMPLATE = """
for $c in outCOM(<p>{mirror}</p>)
where $c.callMethod = "{method}" and $c.callee = "{mirror}"
return <hit method="{method}"><peer>{{$c.caller}}</peer></hit>
by publish as channel "edos-{short}-{method}";
"""

EDOS_MIRRORS = [f"mirror{k}.edos.org" for k in range(3)]


def alerter(peer="a.com", kind="outCOM"):
    return PlanNode(ALERTER, {"alerter": kind, "peer": peer, "var": "c1"}, placement=peer)


def filter_over(child, value="GetTemperature"):
    sub = FilterSubscription("f", [SimpleCondition("callMethod", "=", value)])
    return PlanNode(FILTER, {"subscription": sub, "var": "c1"}, [child])


def make_system(n_peers=3):
    system = P2PMSystem(seed=5)
    peers = [system.add_peer(f"p{i}.example") for i in range(n_peers)]
    monitor = system.add_peer("monitor.example")
    return system, peers, monitor


def assert_db_matches_oracle(db: StreamDefinitionDatabase):
    """Every probe-shaped lookup must equal the XPath oracle, byte for byte:
    by ``(peer, kind)`` for a description without operands, by ``(operator,
    spec, operands)`` for one with."""
    assert db.verify_index_coherence() == []
    probed_alerters = {("ghost.example", "outCOM")}
    probed_operators = {("Filter", "nospec", (("ghost.example", "s1"),))}
    probed_replicas = {("ghost.example", "s1")}
    for description in db.all_stream_descriptions():
        if description.operands:
            probed_operators.add((description.operator, description.spec, description.operands))
        else:
            probed_alerters.add((description.peer_id, description.operator))
        probed_replicas.add((description.peer_id, description.stream_id))
    for peer_id, kind in probed_alerters:
        assert db.find_alerter_streams(peer_id, kind) == db.find_alerter_streams_oracle(
            peer_id, kind
        )
    for operator, spec, operands in probed_operators:
        assert db.find_operator_streams(
            operator, spec, list(operands)
        ) == db.find_operator_streams_oracle(operator, spec, list(operands))
    for peer_id, stream_id in probed_replicas:
        assert db.find_replicas(peer_id, stream_id) == db.find_replicas_oracle(
            peer_id, stream_id
        )


class TestIndexedStreamDatabase:
    def test_matches_oracle_after_publish_retract_replica_churn(self):
        db = StreamDefinitionDatabase()
        doc_ids = []
        for i in range(6):
            peer = f"p{i % 3}.example"
            node = alerter(peer)
            doc_ids.append(db.publish_node(node, peer, f"outCOM-{i}", []))
            filt = filter_over(alerter(peer), value=f"Method{i % 2}")
            doc_ids.append(
                db.publish_node(filt, peer, f"f{i}", [(peer, f"outCOM-{i}")])
            )
        db.publish_replica("p0.example", "f0", "cache.example", "f0-copy")
        db.publish_replica("p0.example", "f0", "cache2.example", "f0-copy2")
        assert_db_matches_oracle(db)
        # retract half the descriptions, including a replica's original
        for doc_id in doc_ids[::2]:
            assert db.retract(doc_id)
        assert_db_matches_oracle(db)
        # re-publish into the same ids, then retract a replica
        db.publish_node(alerter("p0.example"), "p0.example", "outCOM-0", [])
        assert db.retract("replica:f0-copy@cache.example")
        assert_db_matches_oracle(db)

    def test_matches_oracle_under_peer_failure_churn(self):
        system, peers, monitor = make_system()
        db = system.stream_db
        for i, peer in enumerate(peers):
            db.publish_node(alerter(peer.peer_id), peer.peer_id, f"outCOM-{i}", [])
        db.publish_replica("p0.example", "outCOM-0", "p1.example", "copy-1")
        assert_db_matches_oracle(db)
        # an abrupt DHT failure loses keys; re-replication must leave the
        # secondary indexes agreeing with the restored document store
        system.kadop.fail_peer("p1.example")
        assert_db_matches_oracle(db)
        system.kadop.join_peer("p1.example")
        assert_db_matches_oracle(db)

    def test_republish_under_same_doc_id_replaces_old_filing(self):
        """KadoP overwrites silently; stale operator/alerter buckets must go."""
        db = StreamDefinitionDatabase()
        source = alerter("p.example")
        db.publish_node(source, "p.example", "s1", [])
        old_spec = operator_spec(source)
        assert len(db.find_alerter_streams("p.example", "outCOM")) == 1
        # same stream id, now described as a Filter over another stream
        filt = filter_over(alerter("q.example"))
        db.publish_node(filt, "p.example", "s1", [("q.example", "outCOM")])
        assert db.find_alerter_streams("p.example", "outCOM") == []
        assert db.find_operator_streams("outCOM", old_spec, []) == []
        found = db.find_operator_streams(
            "Filter", operator_spec(filt), [("q.example", "outCOM")]
        )
        assert [d.qualified_id for d in found] == ["s1@p.example"]
        assert_db_matches_oracle(db)
        # replicas too: republish the same replica doc id for another original
        db.publish_replica("p.example", "s1", "cache.example", "copy")
        db.publish_replica("other.example", "s9", "cache.example", "copy")
        assert db.find_replicas("p.example", "s1") == []
        assert db.find_replicas("other.example", "s9") == [("cache.example", "copy")]
        assert_db_matches_oracle(db)

    def test_join_window_and_group_every_distinguish_signatures(self):
        from repro.algebra.plan import GROUP, JOIN

        short = PlanNode(JOIN, {"left_var": "a", "right_var": "b",
                                "predicate": [("x", "x")], "window": 10},
                         [alerter(), alerter("b.com")])
        long = PlanNode(JOIN, {"left_var": "a", "right_var": "b",
                               "predicate": [("x", "x")], "window": 20},
                        [alerter(), alerter("b.com")])
        assert operator_spec(short) != operator_spec(long)
        fast = PlanNode(GROUP, {"key": "k", "every": 5}, [alerter()])
        slow = PlanNode(GROUP, {"key": "k", "every": 50}, [alerter()])
        assert operator_spec(fast) != operator_spec(slow)

    def test_template_body_distinguishes_signatures(self):
        from repro.algebra.plan import RESTRUCTURE
        from repro.algebra.template import RestructureTemplate
        from repro.xmlmodel import Element

        one = Element("incident", {"type": "slow"}, text="{$c.caller}")
        two = Element("incident", {"type": "fast"}, text="{$c.callee}")
        a = PlanNode(RESTRUCTURE, {"template": RestructureTemplate(one)}, [alerter()])
        b = PlanNode(RESTRUCTURE, {"template": RestructureTemplate(two)}, [alerter()])
        assert operator_spec(a) != operator_spec(b)

    def test_verify_index_coherence_detects_tampering(self):
        db = StreamDefinitionDatabase()
        db.publish_node(alerter(), "a.com", "outCOM", [])
        assert db.verify_index_coherence() == []
        postings = db.index.ring.storage_for("term:tag:Stats")
        postings["term:tag:Stats"] = set()  # simulate a posting that lost its document
        assert db.verify_index_coherence() != []

    def test_stream_description_is_slotted(self):
        description = StreamDescription("p", "s", True, "Filter", "spec", ())
        assert not hasattr(description, "__dict__")
        assert description.qualified_id == "s@p"


class TestKadopQueryCache:
    def test_repeat_query_hits_cache(self):
        index = KadopIndex()
        db = StreamDefinitionDatabase(index)
        db.publish_node(alerter(), "a.com", "outCOM", [])
        first = db.find_alerter_streams_oracle("a.com", "outCOM")
        hits_before = index.query_cache_hits
        assert db.find_alerter_streams_oracle("a.com", "outCOM") == first
        assert index.query_cache_hits == hits_before + 1

    def test_publish_and_unpublish_invalidate(self):
        index = KadopIndex()
        db = StreamDefinitionDatabase(index)
        doc = db.publish_node(alerter(), "a.com", "outCOM", [])
        assert len(db.find_alerter_streams_oracle("a.com", "outCOM")) == 1
        other = db.publish_node(alerter("b.com"), "b.com", "outCOM", [])
        assert len(db.find_alerter_streams_oracle("b.com", "outCOM")) == 1
        db.retract(doc)
        assert db.find_alerter_streams_oracle("a.com", "outCOM") == []
        db.retract(other)
        assert db.find_alerter_streams_oracle("b.com", "outCOM") == []

    def test_failure_invalidates(self):
        index = KadopIndex()
        for peer in ("p1", "p2", "p3"):
            index.join_peer(peer)
        db = StreamDefinitionDatabase(index)
        db.publish_node(alerter(), "a.com", "outCOM", [])
        before = db.find_alerter_streams_oracle("a.com", "outCOM")
        index.fail_peer("p2")
        # the cache was dropped wholesale; the restored store answers fresh
        assert db.find_alerter_streams_oracle("a.com", "outCOM") == before

    def test_query_lookup_cost_bypasses_cache(self):
        index = KadopIndex()
        db = StreamDefinitionDatabase(index)
        db.publish_node(alerter(), "a.com", "outCOM", [])
        query = "/Stream[@PeerId = 'a.com'][Operator/outCOM]"
        index.query(query)
        cost = index.query_lookup_cost(query)
        assert cost["lookups"] > 0


class TestSignatures:
    def test_computed_conditions_distinguish_filters(self):
        """Two filters differing only in a LET-derived threshold are distinct."""
        low = FilterSubscription(
            "f", computed=[ComputedCondition(((1, "duration"),), ">", 5)]
        )
        high = FilterSubscription(
            "f", computed=[ComputedCondition(((1, "duration"),), ">", 10)]
        )
        low_node = PlanNode(FILTER, {"subscription": low, "var": "c"}, [alerter()])
        high_node = PlanNode(FILTER, {"subscription": high, "var": "c"}, [alerter()])
        assert operator_spec(low_node) != operator_spec(high_node)
        assert plan_signature(low_node) != plan_signature(high_node)

    def test_operator_spec_memoised_and_carried_by_copy(self):
        node = filter_over(alerter())
        spec = operator_spec(node)
        assert node._spec == spec
        assert node.copy()._spec == spec
        assert operator_spec(node.copy()) == spec

    def test_plan_node_is_slotted(self):
        node = alerter()
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.arbitrary = 1

    def test_cache_key_separates_variable_renames(self):
        a = PlanNode(PUBLISH, {"mode": "local", "target": "t"}, [filter_over(alerter())])
        b = PlanNode(PUBLISH, {"mode": "local", "target": "t"}, [filter_over(alerter())])
        b.children[0].params["var"] = "other"
        assert plan_signature(a) == plan_signature(b)
        assert reuse_cache_key(a) != reuse_cache_key(b)


class TestReuseFastPath:
    def test_select_provider_without_network_issues_no_query(self):
        db = StreamDefinitionDatabase()
        db.publish_node(alerter(), "a.com", "outCOM", [])
        db.publish_replica("a.com", "outCOM", "near.com", "copy-1")
        engine = ReuseEngine(db)  # no network, no consumer peer
        queries_before = db.index.query_cache_hits + db.index.query_cache_misses
        plan = PlanNode(PUBLISH, {"mode": "local", "target": "t"}, [alerter()])
        rewritten, report = engine.apply(plan)
        existing = rewritten.find_all(EXISTING)[0]
        # the original stream is the provider; replicas were never consulted
        assert existing.params["provider_peer"] == "a.com"
        assert report.queries_issued == 1  # only the alerter match probe
        assert db.index.query_cache_hits + db.index.query_cache_misses == queries_before

    def test_signature_cache_hit_replays_rewrite(self):
        db = StreamDefinitionDatabase()
        db.publish_node(alerter(), "a.com", "outCOM", [])
        cache = ReuseSignatureCache()
        engine = ReuseEngine(db, signature_cache=cache)
        plan = PlanNode(PUBLISH, {"mode": "local", "target": "t"}, [filter_over(alerter())])
        first, first_report = engine.apply(plan.copy())
        second, second_report = engine.apply(plan.copy())
        assert cache.hits == 1 and cache.misses == 1
        assert second_report.cache_hit
        assert first.describe() == second.describe()
        assert first_report.nodes_reused == second_report.nodes_reused
        assert first_report.nodes_considered == second_report.nodes_considered
        assert first_report.reused == second_report.reused

    def test_signature_cache_invalidated_by_new_stream(self):
        db = StreamDefinitionDatabase()
        db.publish_node(alerter(), "a.com", "outCOM", [])
        cache = ReuseSignatureCache()
        engine = ReuseEngine(db, signature_cache=cache)
        plan = PlanNode(PUBLISH, {"mode": "local", "target": "t"}, [filter_over(alerter())])
        _, first_report = engine.apply(plan.copy())
        assert first_report.nodes_reused == 1
        # the filter stream appears: a replay of the stale rewrite would miss it
        the_filter = filter_over(alerter())
        db.publish_node(the_filter, "a.com", "f1", [("a.com", "outCOM")])
        _, second_report = engine.apply(plan.copy())
        assert not second_report.cache_hit
        assert second_report.nodes_reused == 2

    def test_signature_cache_hit_reranks_providers(self):
        db = StreamDefinitionDatabase()
        db.publish_node(alerter(), "a.com", "outCOM", [])
        network = SimNetwork(seed=1)
        Peer("a.com", network, coordinates=(0.9, 0.9))
        Peer("consumer.com", network, coordinates=(0.1, 0.1))
        cache = ReuseSignatureCache()
        engine = ReuseEngine(
            db, network=network, consumer_peer="consumer.com", signature_cache=cache
        )
        plan = PlanNode(PUBLISH, {"mode": "local", "target": "t"}, [alerter()])
        first, _ = engine.apply(plan.copy())
        assert first.find_all(EXISTING)[0].params["provider_peer"] == "a.com"
        # a closer replica appears; replicas do not invalidate the signature
        # cache, so the hit path must re-rank providers on its own
        Peer("near.com", network, coordinates=(0.11, 0.1))
        db.publish_replica("a.com", "outCOM", "near.com", "copy-1")
        second, report = engine.apply(plan.copy())
        assert report.cache_hit
        existing = second.find_all(EXISTING)[0]
        assert existing.params["provider_peer"] == "near.com"
        assert existing.params["provider_stream_id"] == "copy-1"
        assert existing.params["peer"] == "a.com"


class TestSubmitMany:
    @pytest.mark.parametrize("mix", ["meteo", "overlap", "edos"])
    def test_equivalent_to_sequential_submit(self, mix):
        if mix == "meteo":
            texts = [
                METEO_TEMPLATE.format(threshold=[5, 10, 15][i % 3]) for i in range(9)
            ]
        elif mix == "overlap":
            texts = [
                'for $c in outCOM(<p>p0.example</p>) where $c.callMethod = "M" '
                'return <hit>{$c.caller}</hit> by publish as channel "ch"'
            ] * 6
        else:  # per-mirror method filters, six variants cycled twice
            texts = [
                EDOS_TEMPLATE.format(
                    mirror=f"mirror{i % 3}.edos.org",
                    method=["GetPackage", "QueryIndex"][(i // 3) % 2],
                    short=f"m{i % 3}",
                )
                for i in range(12)
            ]
        deployed = {}
        # "oracle": sequential submits with every ingestion fast path off --
        # XPath queries instead of the secondary indexes, no signature cache
        for strategy in ("sequential", "batch", "oracle"):
            system = P2PMSystem(seed=5)
            for peer_id in ("a.com", "b.com", "meteo.com", "p0.example", *EDOS_MIRRORS):
                system.add_peer(peer_id)
            monitor = system.add_peer("monitor.example")
            if strategy == "oracle":
                db = system.stream_db
                db.find_alerter_streams = db.find_alerter_streams_oracle
                db.find_operator_streams = db.find_operator_streams_oracle
                db.find_replicas = db.find_replicas_oracle
                system.reuse_cache = None
            sub_ids = [f"s-{i}" for i in range(len(texts))]
            if strategy == "batch":
                handles = monitor.subscribe_many(texts, sub_ids=sub_ids)
            else:
                handles = [
                    monitor.subscribe(text, sub_id=sub_id)
                    for text, sub_id in zip(texts, sub_ids)
                ]
            assert system.stream_db.verify_index_coherence() == []
            deployed[strategy] = handles
        sequential = deployed.pop("sequential")
        assert sum(h.reuse_report.nodes_reused for h in sequential) > 0
        for strategy, handles in deployed.items():
            assert [h.sub_id for h in handles] == [h.sub_id for h in sequential], strategy
            for handle, sequential_handle in zip(handles, sequential):
                assert handle.operator_count == sequential_handle.operator_count
                assert handle.peers_involved() == sequential_handle.peers_involved()
                assert handle.task.channels_created == sequential_handle.task.channels_created
                report, sequential_report = handle.reuse_report, sequential_handle.reuse_report
                assert report.nodes_reused == sequential_report.nodes_reused
                assert report.nodes_considered == sequential_report.nodes_considered
                assert report.reused == sequential_report.reused
                assert handle.plan.describe() == sequential_handle.plan.describe()

    def test_index_stays_coherent_while_ingesting_under_mirror_churn(self):
        """Per wave: fail a mirror, ingest against the survivors, revive it;
        the secondary indexes agree with the document store at every step."""
        system = P2PMSystem(seed=3)
        for mirror in EDOS_MIRRORS:
            system.add_peer(mirror)
        monitor = system.add_peer("monitor.example")
        for wave in range(2):
            victim = EDOS_MIRRORS[wave]
            alive = [mirror for mirror in EDOS_MIRRORS if mirror != victim]
            texts = [
                EDOS_TEMPLATE.format(
                    mirror=alive[i % 2],
                    method=["GetPackage", "QueryIndex"][i % 2],
                    short=f"w{wave}-{i % 2}",
                )
                for i in range(20)
            ]
            system.fail_peer(victim)
            assert system.stream_db.verify_index_coherence() == []
            handles = monitor.subscribe_many(texts, sub_ids=[f"churn-{wave}-{i}" for i in range(20)])
            assert all(handle.status == "deployed" for handle in handles)
            system.revive_peer(victim)
            assert system.stream_db.verify_index_coherence() == []
        system.run()
        assert system.stream_db.verify_index_coherence() == []

    def test_batch_delivers_results(self):
        from repro.workloads import MeteoScenario

        scenario = MeteoScenario(threshold=10.0, slow_fraction=0.3, seed=11)
        texts = [scenario.subscription_text()] * 3
        handles = scenario.monitor.subscribe_many(
            texts, sub_ids=["m-0", "m-1", "m-2"], max_results=1000
        )
        scenario.system.run()
        scenario.run_traffic(60)
        reference = len(handles[0].results())
        assert reference > 0
        assert all(len(handle.results()) == reference for handle in handles)

    def test_mismatched_sub_ids_rejected(self):
        system = P2PMSystem(seed=5)
        monitor = system.add_peer("monitor.example")
        with pytest.raises(ValueError):
            monitor.subscribe_many(["for $e in outCOM(<p>local</p>) return $e"], sub_ids=[])

    def test_partial_failure_preserves_deployed_prefix(self):
        from repro.monitor import SubmitManyError

        system = P2PMSystem(seed=5)
        system.add_peer("p0.example")
        monitor = system.add_peer("monitor.example")
        good = (
            'for $c in outCOM(<p>p0.example</p>) where $c.callMethod = "M" '
            'return <hit>{$c.caller}</hit> by publish as channel "ch"'
        )
        with pytest.raises(SubmitManyError) as err:
            monitor.subscribe_many([good, "this is not P2PML"], sub_ids=["ok-0", "bad-1"])
        assert err.value.index == 1
        assert err.value.__cause__ is not None
        (survivor,) = err.value.handles
        # the deployed prefix is alive and fully operational...
        assert survivor.sub_id == "ok-0" and survivor.is_active
        assert survivor.operator_count > 0
        # ...the failing entry left no phantom record behind...
        assert "bad-1" not in monitor.manager.database
        # ...and the survivor can be retired normally
        assert survivor.cancel()

    def test_one_ast_per_text_and_system(self, monkeypatch):
        from repro.monitor import manager

        parsed = []
        real_parse = manager.parse_subscription
        monkeypatch.setattr(
            manager, "parse_subscription", lambda text: parsed.append(text) or real_parse(text)
        )
        system = P2PMSystem(seed=5)
        system.add_peer("p0.example")
        first, second = system.add_peer("m1.example"), system.add_peer("m2.example")
        texts = [
            f'for $c in outCOM(<p>p0.example</p>) where $c.callMethod = "M{i}" '
            "return <hit>{$c.caller}</hit>"
            for i in range(3)
        ]
        # submit, submit_many, another peer's manager: the system's one table
        first.subscribe(texts[0])
        first.subscribe_many(texts + texts)
        handle = second.subscribe(texts[2])
        # one shape, parsed once: the first text as it is, then the shape with
        # a mark where "M0" was; the other two texts are bound, not parsed
        assert len(parsed) == 2 and parsed[0] == texts[0]
        mark = parsed[1].split('"')[1]
        assert mark != "M0" and parsed[1] == texts[0].replace("M0", mark)
        assert len(system.plan_shapes) == 1
        assert list(system.plan_templates) == [(text, True) for text in texts]
        record = second.manager.database.get(handle.sub_id)
        assert record.template is system.plan_templates[texts[2], True]
        # another system starts from nothing (neither table is module state)
        other = P2PMSystem(seed=5)
        other.add_peer("p0.example")
        other.add_peer("m1.example").subscribe(texts[1])
        assert parsed[2:] == [texts[1], parsed[1]]
        # bounded: cleared wholesale when full
        monkeypatch.setattr(manager, "TEMPLATE_TABLE_LIMIT", 3)
        first.subscribe(texts[0].replace("M0", "M9"))
        assert len(system.plan_templates) == 1
        assert len(parsed) == 4  # the shape still binds it

    def test_batch_cancellation_is_independent(self):
        system = P2PMSystem(seed=5)
        system.add_peer("p0.example")
        monitor = system.add_peer("monitor.example")
        text = (
            'for $c in outCOM(<p>p0.example</p>) where $c.callMethod = "M" '
            'return <hit>{$c.caller}</hit> by publish as channel "ch"'
        )
        first, second = monitor.subscribe_many([text, text], sub_ids=["c-0", "c-1"])
        assert first.cancel()
        assert second.is_active
        assert second.cancel()


class TestChannelNameAllocation:
    def test_suffix_sequence_and_reuse_after_free(self):
        system = P2PMSystem(seed=5)
        system.add_peer("p0.example")
        monitor = system.add_peer("monitor.example")
        text = (
            "for $c in outCOM(<p>p0.example</p>) "
            'return <hit>{$c.caller}</hit> by publish as channel "dup"'
        )
        handles = monitor.subscribe_many([text] * 3, sub_ids=["d-0", "d-1", "d-2"])
        names = [h.task.channels_created[-1] for h in handles]
        assert names == [
            "#dup@monitor.example",
            "#dup-2@monitor.example",
            "#dup-3@monitor.example",
        ]
        # cancelling the middle one frees its name; the next subscription
        # must find the freed slot again (the probe restarts on frees)
        handles[1].cancel()
        replacement = monitor.subscribe(text, sub_id="d-3")
        assert replacement.task.channels_created[-1] == "#dup-2@monitor.example"
