"""A replica published while a batch holds its writes is held like a stream.

``publish_replica`` reads KadoP only to check for a republish of the same
document, so it flushes the held descriptions only when that document is
one of them; the replica map moves at once, and the ring is routed when the
batch ends.
"""

from __future__ import annotations

from repro.dht import ChordRing, KadopIndex
from repro.monitor import StreamDefinitionDatabase
from repro.monitor.stream_db import StreamDescription


def _database() -> StreamDefinitionDatabase:
    ring = ChordRing()
    for i in range(6):
        ring.join(f"node{i}")
    return StreamDefinitionDatabase(KadopIndex(ring))


def test_a_held_replica_routes_nothing_until_the_batch_ends():
    db = _database()
    ring = db.index.ring
    db.pending = {}
    stream = db.publish_stream(StreamDescription("p0", "s0", True, "Filter", "a", (("p0", "src"),)))
    lookups = ring.lookup_count
    replica = db.publish_replica("p0", "s0", "p1", "copy")
    assert ring.lookup_count == lookups
    assert list(db.pending) == [stream, replica]
    assert db.find_replicas("p0", "s0") == [("p1", "copy")]  # the map moves at once
    db.flush(hold=False)
    assert ring.lookup_count > lookups and set(db.index.records) == {stream, replica}
    assert db.verify_index_coherence() == []


def test_a_held_replica_republished_is_written_once():
    db = _database()
    db.pending = {}
    first = db.publish_replica("p0", "s0", "p1", "copy")
    assert db.publish_replica("p0", "s0", "p1", "copy") == first
    assert db.find_replicas("p0", "s0") == [("p1", "copy")]
    db.flush(hold=False)
    assert list(db.index.records) == [first]
    assert db.verify_index_coherence() == []
