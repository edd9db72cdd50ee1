"""KadoP keeps the description record and renders its document on read.

``publish_stream`` and ``publish_replica`` hand KadoP a ``StreamDescription``
or a ``ReplicaDescription``; ``KadopIndex.document`` renders the ``<Stream>`` /
``<InChannel>`` Element afresh on every read, and a record's postings come
from its own ``terms()``.  This module holds the renderings to frozen copies
of the code that built them when KadoP stored Elements -- the record's former
``to_element`` and ``publish_replica``'s Element construction -- over the three
benchmark decks' subscriptions and every catalog scenario, in both failure
modes and over the reliable control plane, whose RPC payload is the rendering
and whose handler stores the record decoded from it.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from test_stream_terms import assert_lookups_equal_the_oracle, publishing_nodes

from perf.harness import Cycle, PhaseClock, Tally
from perf.workloads import WORKLOADS
from repro.dht import KadopIndex
from repro.monitor import P2PMSystem, StreamDefinitionDatabase
from repro.monitor.control import RPC_KADOP_PUBLISH
from repro.monitor.stream_db import ReplicaDescription, StreamDescription, decode_description
from repro.net.errors import PayloadError, RpcRemoteError
from repro.scenarios import chaos
from repro.scenarios.catalog import make_scenario, scenario_names
from repro.xmlmodel import parse_xml, to_xml
from repro.xmlmodel.tree import Element


def frozen_stream_element(description: StreamDescription, avg_volume: float = 0.0) -> Element:
    """``StreamDescription.to_element`` as it was when KadoP stored its result."""
    new = Element.fast_new
    operator = new("Operator", {}, [new(description.operator, {"spec": description.spec}, [])])
    operands = new("Operands", {}, [
        new("Operand", {"OPeerId": op_peer, "OStreamId": op_stream}, [])
        for op_peer, op_stream in description.operands
    ])
    stats = new("Stats", {"avgVolume": f"{avg_volume:.1f}"}, [])
    channel = "true" if description.is_channel else "false"
    attrib = {"PeerId": description.peer_id, "StreamId": description.stream_id, "isAChannel": channel}
    return new("Stream", attrib, [operator, operands, stats])


def frozen_replica_element(peer_id: str, stream_id: str, replica_peer_id: str, replica_stream_id: str) -> Element:
    """The ``<InChannel>`` Element ``publish_replica`` built and stored."""
    attrib = {"PeerId": peer_id, "StreamId": stream_id,
              "ReplicaPeerId": replica_peer_id, "ReplicaStreamId": replica_stream_id}
    return Element.fast_new("InChannel", attrib, [])


def assert_documents_render_as_before(db: StreamDefinitionDatabase) -> int:
    """Every document KadoP holds renders byte for byte as the frozen code
    built it from the record KadoP keeps, is stored as a record and is filed
    under the terms of that rendering; returns how many documents were
    checked.  A routed record crossed the wire as its rendering, and KadoP
    holds the one decoded from it: the same checks hold."""
    index = db.index
    filed = index.filed_terms()
    doc_ids = index.document_ids
    for doc_id in doc_ids:
        record = index.records[doc_id]
        if type(record) is StreamDescription:
            frozen = frozen_stream_element(record)
        else:
            assert type(record) is ReplicaDescription, doc_id
            frozen = frozen_replica_element(record.peer_id, record.stream_id,
                                            record.replica_peer_id, record.replica_stream_id)
        rendered = index.document(doc_id)
        assert to_xml(rendered) == to_xml(frozen), doc_id
        assert record.terms() == KadopIndex._terms_of_document(frozen), doc_id
        assert filed[doc_id] == KadopIndex._terms_of_document(rendered), doc_id
        # a record, a fresh Element per read
        assert index.ring.get(f"doc:{doc_id}") is record, doc_id
        assert index.document(doc_id) is not rendered
    assert db.verify_index_coherence() == []
    assert_lookups_equal_the_oracle(db)
    return len(doc_ids)


# -- the record renders what the frozen code built -----------------------------------------------


OPERANDS = ([], [("a.com", "outCOM")], [("b.com", "s2"), ("a.com", "s1"), ("b.com", "s2")])


@pytest.mark.parametrize("avg_volume", [0.0, 2.25])
@pytest.mark.parametrize("is_channel", [True, False])
@pytest.mark.parametrize("kind", list(publishing_nodes()))
def test_every_node_kind_renders_as_before(kind, is_channel, avg_volume):
    db = StreamDefinitionDatabase()
    for number, operands in enumerate(OPERANDS):
        description = db.describe_node(publishing_nodes()[kind], "m.com", f"s{number}", operands, is_channel)
        assert to_xml(description.to_element(avg_volume)) == to_xml(frozen_stream_element(description, avg_volume))
        db.publish_stream(description)
    db.publish_replica("m.com", "s0", "cache.com", "copy")
    assert assert_documents_render_as_before(db) == len(OPERANDS) + 1


def test_a_republished_record_replaces_the_first():
    db = StreamDefinitionDatabase()
    first = db.describe_node(publishing_nodes()["filter"], "m.com", "f", [("a.com", "outCOM")])
    doc_id = db.publish_stream(first)
    filed = db.index.filed_terms()[doc_id]
    # the same stream, republished over another operand: KadoP holds the new record alone
    second = dataclasses.replace(first, operands=(("b.com", "outCOM"),))
    assert db.publish_stream(second) == doc_id
    assert db.index.records[doc_id] is second and db.all_stream_descriptions() == [second]
    assert db.index.filed_terms()[doc_id] == second.terms() != filed
    assert db.find_operator_streams(first.operator, first.spec, [("a.com", "outCOM")]) == []
    assert db.find_operator_streams(first.operator, first.spec, [("b.com", "outCOM")]) == [second]
    assert assert_documents_render_as_before(db) == 1
    assert db.retract(doc_id) and db.index.filed_terms() == {}


# -- the three benchmark decks ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_deck(name: str):
    workload = WORKLOADS[name]
    plan = workload.deal(random.Random(f"{name}/1/0"), workload.sizes(0.1))
    tally = Tally()
    cycle = Cycle(workload, plan, PhaseClock(), tally)
    cycle.subscribe()
    db = cycle.system.stream_db
    assert assert_documents_render_as_before(db) > len(plan.subs) // 10
    cycle.cancel(plan.cancels)
    assert assert_documents_render_as_before(db) > 0
    cycle.close()
    assert tally.failed == 0, tally.first_error


# -- the catalog scenarios ----------------------------------------------------------------------


@pytest.fixture
def systems(monkeypatch):
    """Every system a scenario run builds, in order."""
    built = []

    class Recording(chaos.P2PMSystem):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(chaos, "P2PMSystem", Recording)
    return built


@pytest.mark.parametrize("failure_mode", ["oracle", "detector"])
@pytest.mark.parametrize("name", scenario_names())
def test_catalog_scenario(systems, name: str, failure_mode: str):
    scenario = make_scenario(name, seed=0, failure_mode=failure_mode)
    result = scenario.run()
    assert result.ok, [inv for inv in result.invariants if not inv.ok]
    (system,) = systems
    assert assert_documents_render_as_before(system.stream_db) > 0


#: (messages, bytes, RPC calls) a seed-0 run sent over the reliable control
#: plane when KadoP stored Elements: rendering on read sends the same bytes.
#: churn-failover and silent-kill in detector mode re-pinned since: an
#: adopted replay crosses each reliable channel as one frame, not per item
RELIABLE_CONTROL_TOTALS = {
    ("churn-failover", "oracle"): (220, 30702, 50),
    ("churn-failover", "detector"): (897, 48419, 50),
    ("churn-soak", "oracle"): (1265, 176055, 445),
    ("churn-soak", "detector"): (2653, 155727, 208),
    ("flaky-network", "oracle"): (270, 34510, 16),
    ("flaky-network", "detector"): (1684, 71417, 16),
    ("lossy-control-plane", "oracle"): (232, 32617, 19),
    ("lossy-control-plane", "detector"): (1271, 63292, 19),
    ("lossy-network", "oracle"): (267, 34919, 18),
    ("lossy-network", "detector"): (1558, 73083, 18),
    ("partition-heal", "oracle"): (168, 22359, 14),
    ("partition-heal", "detector"): (965, 42628, 14),
    ("silent-kill", "oracle"): (296, 40230, 64),
    ("silent-kill", "detector"): (1147, 62412, 64),
}


def test_the_pinned_totals_cover_the_catalog():
    assert {name for name, _ in RELIABLE_CONTROL_TOTALS} == set(scenario_names())


@pytest.mark.parametrize("failure_mode", ["oracle", "detector"])
@pytest.mark.parametrize("name", scenario_names())
def test_catalog_scenario_over_the_reliable_control_plane(systems, name: str, failure_mode: str):
    scenario = dataclasses.replace(make_scenario(name, seed=0, failure_mode=failure_mode), reliable_control=True)
    result = scenario.run()
    assert result.ok, [inv for inv in result.invariants if not inv.ok]
    (system,) = systems
    stats = system.network.stats
    assert (stats.total_messages, stats.total_bytes, stats.rpc_calls) == RELIABLE_CONTROL_TOTALS[name, failure_mode]
    assert assert_documents_render_as_before(system.stream_db) > 0


# -- a payload no record renders is refused ------------------------------------------------------

#: a <Stream> with no <Operator> (which decoded to an empty operator and spec), then one
#: payload per other thing a record cannot do without
REFUSED = {
    '<Stream PeerId="p" StreamId="s"><Operands/></Stream>': "an Operator child",
    '<Stream PeerId="p" StreamId="s"><Operator/><Operands/></Stream>': "an Operator child",
    '<Stream PeerId="p" StreamId="s"><Operator><Filter/></Operator><Operands/></Stream>': "spec",
    '<Stream StreamId="s"><Operator><Filter spec="x"/></Operator><Operands/></Stream>': "PeerId",
    '<Stream PeerId="p"><Operator><Filter spec="x"/></Operator><Operands/></Stream>': "StreamId",
    '<InChannel PeerId="p" StreamId="s" ReplicaPeerId="r"/>': "ReplicaStreamId",
    '<Stream PeerId="p" StreamId="s"><Operator><Filter spec="x"/></Operator>'
    '<Operands><Operand OStreamId="o"/></Operands></Stream>': "OPeerId",
    # what decoding once rewrote: an operand under another tag, a second operator
    '<Stream PeerId="p" StreamId="s"><Operator><Filter spec="x"/></Operator>'
    '<Operands><Foo OPeerId="a" OStreamId="b"/></Operands></Stream>': "an Operand in place of <Foo>",
    '<Stream PeerId="p" StreamId="s"><Operator><Filter spec="x"/><Restructure spec="y"/></Operator>'
    "<Operands/></Stream>": "a lone Operator child",
}


@pytest.mark.parametrize("payload", sorted(REFUSED))
def test_decoding_refuses_what_no_record_renders(payload: str):
    with pytest.raises(PayloadError) as refused:
        decode_description(parse_xml(payload))
    assert refused.value.missing == REFUSED[payload]


def test_a_refused_payload_is_neither_stored_nor_routed():
    _refused_over_rpc('<Stream PeerId="p" StreamId="s"><Operands/></Stream>')


def test_an_operand_under_another_tag_is_neither_stored_nor_routed():
    _refused_over_rpc('<Stream PeerId="p" StreamId="s"><Operator><Filter spec="x"/></Operator>'
                      '<Operands><Foo OPeerId="a" OStreamId="b"/></Operands></Stream>')


def _refused_over_rpc(text: str) -> None:
    """``text`` sent through the ``kadop.publish`` RPC raises at the caller and leaves KadoP as it was."""
    system = P2PMSystem(seed=5, reliable_control=True)
    for peer_id in ("s0", "m1"):
        system.add_peer(peer_id)
    kadop = system.kadop
    doc_id = next(f"stream:s{n}@p" for n in range(64) if system.stream_db.router._home_peer(f"stream:s{n}@p"))
    home = system.stream_db.router._home_peer(doc_id)
    storage = {node.node_id: dict(node.storage) for node in kadop.ring.nodes()}
    catalogue = set(kadop.document_ids)  # a routed read
    lookups = kadop.ring.lookup_count
    payload = parse_xml(text)
    with pytest.raises(RpcRemoteError, match="PayloadError"):
        system.peer("m1").rpc.call_sync(home, RPC_KADOP_PUBLISH, Element("publish", {"docId": doc_id}, [payload]))
    assert kadop.ring.lookup_count == lookups
    assert {node.node_id: dict(node.storage) for node in kadop.ring.nodes()} == storage
    assert kadop.records == {} and set(kadop.document_ids) == catalogue
