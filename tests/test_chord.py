"""Tests for the Chord-style DHT ring."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dht import ChordRing, hash_key
from repro.dht.hashing import M_BITS


class TestHashing:
    def test_hash_is_deterministic_and_bounded(self):
        assert hash_key("abc") == hash_key("abc")
        assert 0 <= hash_key("abc") < (1 << M_BITS)
        assert hash_key("abc", bits=8) < 256

    def test_different_keys_differ(self):
        assert hash_key("peer1") != hash_key("peer2")


class TestMembership:
    def test_join_and_len(self):
        ring = ChordRing()
        ring.join("a")
        ring.join("b")
        assert len(ring) == 2
        assert "a" in ring and "b" in ring
        assert ring.node_ids == ["a", "b"]

    def test_duplicate_join_rejected(self):
        ring = ChordRing()
        ring.join("a")
        with pytest.raises(ValueError):
            ring.join("a")

    def test_leave_unknown_raises(self):
        ring = ChordRing()
        with pytest.raises(KeyError):
            ring.leave("ghost")

    def test_membership_log(self):
        ring = ChordRing()
        ring.join("a")
        ring.join("b")
        ring.leave("a")
        assert ring.membership_log == [("join", "a"), ("join", "b"), ("leave", "a")]


class TestStorage:
    def test_put_get_remove(self):
        ring = ChordRing()
        for name in ("a", "b", "c"):
            ring.join(name)
        ring.put("key1", "value1")
        assert ring.get("key1") == "value1"
        assert ring.storage_for("key1") is ring.node(ring.lookup("key1").node_id).storage
        assert ring.remove("key1")
        assert ring.get("key1") is None
        assert not ring.remove("key1")

    def test_lookup_on_empty_ring_raises(self):
        with pytest.raises(RuntimeError):
            ChordRing().lookup("key")

    def test_single_node_owns_everything(self):
        ring = ChordRing()
        ring.join("only")
        for i in range(20):
            ring.put(f"k{i}", i)
        assert ring.storage_distribution() == {"only": 20}

    def test_keys_survive_join(self):
        ring = ChordRing()
        ring.join("a")
        keys = [f"k{i}" for i in range(50)]
        for key in keys:
            ring.put(key, key.upper())
        for name in ("b", "c", "d", "e"):
            ring.join(name)
        for key in keys:
            assert ring.get(key) == key.upper()
        # keys are actually spread over several nodes
        occupied = [n for n, count in ring.storage_distribution().items() if count]
        assert len(occupied) > 1

    def test_keys_survive_leave(self):
        ring = ChordRing()
        for name in ("a", "b", "c", "d"):
            ring.join(name)
        keys = [f"k{i}" for i in range(50)]
        for key in keys:
            ring.put(key, key)
        ring.leave("b")
        ring.leave("c")
        for key in keys:
            assert ring.get(key) == key

    def test_lookup_consistent_from_any_start(self):
        ring = ChordRing()
        for name in ("a", "b", "c", "d", "e", "f"):
            ring.join(name)
        ring.put("the-key", 1)
        owners = {ring.lookup("the-key", start=s).node_id for s in ring.node_ids}
        assert len(owners) == 1


class TestRouting:
    def test_hops_grow_logarithmically(self):
        ring = ChordRing()
        for i in range(128):
            ring.join(f"node{i}")
        hops = []
        for i in range(200):
            result = ring.lookup(f"key{i}", start=f"node{i % 128}")
            hops.append(result.hops)
        average = sum(hops) / len(hops)
        # Chord bound: O(log2 N) = 7 for 128 nodes; allow slack but reject linear
        assert average <= math.log2(128) + 2
        assert max(hops) <= 2 * math.log2(128) + 4

    def test_average_hops_counter(self):
        ring = ChordRing()
        for i in range(16):
            ring.join(f"n{i}")
        assert ring.average_hops == 0.0
        for i in range(10):
            ring.lookup(f"k{i}")
        assert ring.average_hops >= 0.0
        assert ring.lookup_count == 10

    def test_lookup_path_starts_at_start_node(self):
        ring = ChordRing()
        for i in range(8):
            ring.join(f"n{i}")
        result = ring.lookup("some-key", start="n3")
        assert result.path[0] == "n3"
        assert result.path[-1] == result.node_id


@settings(max_examples=25, deadline=None)
@given(
    node_names=st.sets(st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=1, max_size=12),
    keys=st.lists(st.text(alphabet="klmnop", min_size=1, max_size=8), min_size=1, max_size=20, unique=True),
)
def test_property_every_stored_key_is_retrievable(node_names, keys):
    ring = ChordRing()
    for name in sorted(node_names):
        ring.join(name)
    for key in keys:
        ring.put(key, f"value-{key}")
    for key in keys:
        assert ring.get(key) == f"value-{key}"


@settings(max_examples=25, deadline=None)
@given(
    keys=st.lists(st.text(alphabet="xyz0123", min_size=1, max_size=8), min_size=1, max_size=15, unique=True),
    leavers=st.integers(min_value=0, max_value=3),
)
def test_property_keys_survive_churn(keys, leavers):
    ring = ChordRing()
    names = [f"peer{i}" for i in range(6)]
    for name in names:
        ring.join(name)
    for key in keys:
        ring.put(key, key)
    for name in names[:leavers]:
        ring.leave(name)
    ring.join("latecomer")
    for key in keys:
        assert ring.get(key) == key
