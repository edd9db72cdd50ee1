"""E8 -- DHT-backed Stream Definition Database scales with peers and streams (Section 5).

Claim: implementing the Stream Definition Database over a DHT (KadoP) avoids
a central bottleneck: publications and discovery queries touch O(log n)
peers, storage is spread over all peers, and the cost per declared stream
does not grow with the ring.

Counted, not timed: every number below is read from the ring's own
``lookup_count`` / ``total_hops`` accounts.
(The publication and the Section-5 XPath query are routed; so is
``find_alerter_streams``, two exact-term lookups over the same postings,
whose lookups fall outside every counted cost.)
"""

import math

import pytest

from repro.algebra.plan import ALERTER, PlanNode
from repro.dht import ChordRing
from repro.dht.kadop import KadopIndex
from repro.monitor import StreamDefinitionDatabase

PEER_COUNTS = [16, 64, 256, 1024]
N_STREAMS = 400
N_QUERIES = 16


def empty_database(n_peers: int) -> StreamDefinitionDatabase:
    ring = ChordRing()
    for index in range(n_peers):
        ring.join(f"peer{index}.example")
    return StreamDefinitionDatabase(KadopIndex(ring))


def publish_streams(db: StreamDefinitionDatabase, n_peers: int) -> None:
    for index in range(N_STREAMS):
        peer = f"peer{index % n_peers}.example"
        kind = "inCOM" if index % 2 == 0 else "outCOM"
        node = PlanNode(ALERTER, {"alerter": kind, "peer": peer, "var": "c"}, placement=peer)
        db.publish_node(node, peer, f"{kind}-{index}", [])


def measure(n_peers: int) -> dict[str, float]:
    """The routing counters of one publication run and ``N_QUERIES`` oracle queries."""
    db = empty_database(n_peers)
    ring = db.index.ring
    setup_lookups, setup_hops = ring.lookup_count, ring.total_hops  # catalogue bootstrap
    publish_streams(db, n_peers)
    publish_lookups = ring.lookup_count - setup_lookups
    publish_hops = ring.total_hops - setup_hops
    query_lookups = query_hops = results = indexed_results = 0
    for index in range(N_QUERIES):
        peer = f"peer{index % n_peers}.example"
        cost = db.index.query_lookup_cost(f"/Stream[@PeerId = '{peer}'][Operator/inCOM]")
        query_lookups += cost["lookups"]
        query_hops += cost["hops"]
        results += cost["results"]
        indexed_results += len(db.find_alerter_streams(peer, "inCOM"))
    distribution = ring.storage_distribution()
    return {
        "publish_hops_per_lookup": publish_hops / publish_lookups,
        "lookups_per_stream": publish_lookups / N_STREAMS,
        "query_hops_per_lookup": query_hops / query_lookups,
        "query_results": results,
        "indexed_results": indexed_results,
        "peers_storing_data": sum(1 for count in distribution.values() if count),
        "max_keys_on_one_peer": max(distribution.values()),
        "keys": sum(distribution.values()),
    }


@pytest.mark.parametrize("n_peers", PEER_COUNTS)
def test_routing_cost_is_logarithmic_and_a_stream_costs_the_same_on_every_ring(n_peers):
    counters = measure(n_peers)
    assert 0 < counters["publish_hops_per_lookup"] <= math.log2(n_peers)
    assert 0 < counters["query_hops_per_lookup"] <= math.log2(n_peers)
    # one lookup for the document, one for the catalogue, one per term: constant in n
    assert counters["lookups_per_stream"] == 12.0
    # the routed XPath query finds what the exact-term probe finds
    assert counters["query_results"] == counters["indexed_results"] > 0
    # no central bottleneck: many peers hold part of the database
    assert counters["peers_storing_data"] > n_peers // 4
    assert counters["max_keys_on_one_peer"] <= counters["keys"] / 3
