"""Tests for the Stream Definition Database and operator placement/optimisation."""

import pytest

from repro.algebra.plan import ALERTER, FILTER, JOIN, PUBLISH, RESTRUCTURE, UNION, PlanNode
from repro.filtering import FilterSubscription, SimpleCondition
from repro.monitor import StreamDefinitionDatabase, optimize_plan, place_plan
from repro.monitor.stream_db import OPERATOR_NAMES, operator_spec
from repro.net.errors import RpcTimeout
from repro.p2pml import compile_text
from repro.xmlmodel import Element


def alerter_node(peer="a.com", kind="outCOM"):
    return PlanNode(ALERTER, {"alerter": kind, "peer": peer, "var": "c1"}, placement=peer)


def filter_node(child, value="GetTemperature"):
    sub = FilterSubscription("f", [SimpleCondition("callMethod", "=", value)])
    return PlanNode(FILTER, {"subscription": sub, "var": "c1"}, [child])


METEO = """
for $c1 in outCOM(<p>a.com</p> <p>b.com</p>),
    $c2 in inCOM(<p>meteo.com</p>)
let $duration := $c1.responseTimestamp - $c1.callTimestamp
where $duration > 10 and $c1.callMethod = "GetTemperature" and
      $c1.callee = "meteo.com" and $c1.callId = $c2.callId
return <incident type="slowAnswer"><client>{$c1.caller}</client></incident>
by publish as channel "alertQoS";
"""


class TestStreamDefinitionDatabase:
    def test_publish_and_find_alerter_stream(self):
        db = StreamDefinitionDatabase()
        node = alerter_node()
        db.publish_node(node, "a.com", "outCOM", [])
        found = db.find_alerter_streams("a.com", "outCOM")
        assert len(found) == 1
        assert found[0].qualified_id == "outCOM@a.com"
        assert found[0].is_channel
        assert db.find_alerter_streams("a.com", "inCOM") == []
        assert db.find_alerter_streams("b.com", "outCOM") == []

    def test_find_operator_stream_requires_spec_and_operands(self):
        db = StreamDefinitionDatabase()
        source = alerter_node()
        db.publish_node(source, "a.com", "outCOM", [])
        filt = filter_node(source)
        db.publish_node(filt, "a.com", "f1", [("a.com", "outCOM")])
        found = db.find_operator_streams("Filter", operator_spec(filt), [("a.com", "outCOM")])
        assert len(found) == 1
        # a different filter spec does not match
        other = filter_node(source, value="GetHumidity")
        assert db.find_operator_streams("Filter", operator_spec(other), [("a.com", "outCOM")]) == []
        # wrong operand does not match
        assert db.find_operator_streams("Filter", operator_spec(filt), [("b.com", "outCOM")]) == []

    def test_operand_sets_must_match_exactly(self):
        db = StreamDefinitionDatabase()
        join = PlanNode(JOIN, {"left_var": "a", "right_var": "b", "predicate": []},
                        [alerter_node(), alerter_node("b.com")])
        db.publish_node(join, "b.com", "j1", [("a.com", "s1"), ("b.com", "s2")])
        spec = operator_spec(join)
        assert len(db.find_operator_streams("Join", spec, [("a.com", "s1"), ("b.com", "s2")])) == 1
        # a single operand is a strict subset: not an exact match
        assert db.find_operator_streams("Join", spec, [("a.com", "s1")]) == []

    def test_replicas(self):
        db = StreamDefinitionDatabase()
        db.publish_replica("a.com", "s1", "cache.com", "s1-copy")
        assert db.find_replicas("a.com", "s1") == [("cache.com", "s1-copy")]
        assert db.find_replicas("a.com", "other") == []

    def test_describe_rejects_non_stream_nodes(self):
        db = StreamDefinitionDatabase()
        from repro.algebra.plan import EXISTING

        existing = PlanNode(EXISTING, {"peer": "p", "stream_id": "s"})
        with pytest.raises(ValueError):
            db.describe_node(existing, "p", "s", [])
        # nothing was described, so nothing is published
        assert db.all_stream_descriptions() == [] and db.index.document_ids == []

    def test_all_stream_descriptions(self):
        db = StreamDefinitionDatabase()
        db.publish_node(alerter_node(), "a.com", "outCOM", [])
        db.publish_node(alerter_node("b.com"), "b.com", "outCOM", [])
        assert len(db.all_stream_descriptions()) == 2

    def test_descriptions_equal_the_validated_construction(self):
        source, other = alerter_node(), alerter_node("b.com", "inCOM")
        join = PlanNode(JOIN, {"left_var": "a", "right_var": "b", "predicate": []}, [source, other])
        publish = PlanNode(PUBLISH, {"mode": "channel", "target": "out"}, [join])
        cases = [
            (source, "a.com", "outCOM", [], True, 0.0),
            (filter_node(source), "a.com", "f1", [("a.com", "outCOM")], False, 2.25),
            (join, "b.com", "j1", [("a.com", "s1"), ("b.com", "s2")], True, 0.0),
            (publish, "m.com", "out", [("b.com", "j1")], True, 0.0),
        ]
        db = StreamDefinitionDatabase()
        for node, peer, stream, operands, is_channel, volume in cases:
            built = db.describe_node(node, peer, stream, operands, is_channel).to_element(volume)
            assert built == Element(
                "Stream",
                {"PeerId": peer, "StreamId": stream, "isAChannel": "true" if is_channel else "false"},
                [
                    Element("Operator", children=[
                        Element(node.params.get("alerter") or OPERATOR_NAMES[node.kind],
                                {"spec": operator_spec(node)})
                    ]),
                    Element("Operands", children=[
                        Element("Operand", {"OPeerId": p, "OStreamId": s}) for p, s in operands
                    ]),
                    Element("Stats", {"avgVolume": f"{volume:.1f}"}),
                ],
            )
        db.publish_replica("a.com", "s1", "cache.com", "s1-copy")
        assert db.index.document("replica:s1-copy@cache.com") == Element("InChannel", {
            "PeerId": "a.com", "StreamId": "s1", "ReplicaPeerId": "cache.com", "ReplicaStreamId": "s1-copy",
        })

    def test_a_publication_the_router_refuses_is_not_counted(self):
        class Refusing:
            def publish_document(self, record, doc_id, owner):
                raise RpcTimeout("home", "kadop.publish", 3)

            def retract_document(self, doc_id, owner):
                return False

        db = StreamDefinitionDatabase()
        db.router = Refusing()
        with pytest.raises(RpcTimeout):
            db.publish_node(alerter_node(), "a.com", "outCOM", [])
        with pytest.raises(RpcTimeout):
            db.publish_replica("a.com", "outCOM", "cache.com", "copy")
        assert (db.streams_published, db.replicas_published) == (0, 0)
        db.router = None
        db.publish_node(alerter_node(), "a.com", "outCOM", [])
        db.publish_replica("a.com", "outCOM", "cache.com", "copy")
        assert (db.streams_published, db.replicas_published) == (1, 1)

    def test_coherence_check_sees_a_stale_replica_map_entry(self):
        db = StreamDefinitionDatabase()
        db.publish_replica("a.com", "s1", "cache.com", "s1-copy")
        assert db.verify_index_coherence() == []
        db._replica_map[("a.com", "gone")] = {"replica:gone@cache.com": ("cache.com", "gone")}
        assert db.verify_index_coherence() == [
            "replica_map: 0 missing, 1 stale, first differing keys []"
        ]
        del db._replica_map[("a.com", "gone")]
        db._replica_map[("a.com", "s1")]["replica:s1-copy@cache.com"] = ("cache.com", "elsewhere")
        assert db.verify_index_coherence()[0].endswith("[('a.com', 's1')]")


class TestOptimizer:
    def test_pushes_filters_through_union(self):
        plan = compile_text(METEO, "m")
        optimized = optimize_plan(plan)
        union = optimized.find_all(UNION)[0]
        assert all(child.kind == FILTER for child in union.children)

    def test_can_disable_pushdown(self):
        plan = compile_text(METEO, "m")
        unoptimized = optimize_plan(plan, push_selections=False)
        union = unoptimized.find_all(UNION)[0]
        assert all(child.kind == ALERTER for child in union.children)

    def test_original_plan_untouched(self):
        plan = compile_text(METEO, "m")
        before = plan.describe()
        optimize_plan(plan)
        assert plan.describe() == before


class TestPlacement:
    def test_meteo_plan_placement(self):
        plan = optimize_plan(compile_text(METEO, "m"))
        place_plan(plan, manager_peer="monitor.com")
        assert plan.unplaced_nodes() == []
        # alerters at the monitored peers
        for node in plan.find_all(ALERTER):
            assert node.placement == node.params["peer"]
        # filters placed with their sources
        for node in plan.find_all(FILTER):
            assert node.placement == node.children[0].placement
        # the union runs at one of the two client peers
        assert plan.find_all(UNION)[0].placement in ("a.com", "b.com")
        # the join runs at one of its two inputs' peers
        join = plan.find_all(JOIN)[0]
        assert join.placement in (join.children[0].placement, join.children[1].placement)
        # the publisher runs at the subscription manager
        assert plan.placement == "monitor.com"

    def test_join_prefers_less_loaded_peer(self):
        plan = optimize_plan(compile_text(METEO, "m"))
        # pretend meteo.com is already very busy
        load = {"meteo.com": 100}
        place_plan(plan, manager_peer="monitor.com", load=load)
        join = plan.find_all(JOIN)[0]
        assert join.placement != "meteo.com"

    def test_restructure_follows_child(self):
        plan = optimize_plan(compile_text(METEO, "m"))
        place_plan(plan, manager_peer="monitor.com")
        restructure = plan.find_all(RESTRUCTURE)[0]
        assert restructure.placement == restructure.children[0].placement

    def test_local_alerter_placed_at_manager(self):
        plan = compile_text(
            "for $e in outCOM(<p>local</p>) return $e by channel X", "local-task"
        )
        place_plan(plan, manager_peer="a.com")
        assert plan.find_all(ALERTER)[0].placement == "a.com"
