"""DHT substrate: Chord-style ring and the KadoP-like XML index.

Section 5 of the paper stores the Stream Definition Database in KadoP [3],
"a P2P XML index and repository over a DHT system", so that stream discovery
scales to millions of streams without a central bottleneck.  This package
provides a self-contained equivalent:

* :mod:`repro.dht.hashing` -- consistent hashing onto a ``2**m`` identifier ring.
* :mod:`repro.dht.chord` -- a Chord-style ring with finger tables, key
  storage and hop-counted lookups.
* :mod:`repro.dht.kadop` -- an XML postings index layered over the ring,
  answering the tree-pattern queries used by the Reuse algorithm, plus the
  membership event stream consumed by the ``areRegistered`` alerter.
"""

from repro.dht.hashing import hash_key
from repro.dht.chord import ChordNode, ChordRing, LookupResult
from repro.dht.kadop import KadopIndex, MembershipEvent

__all__ = [
    "hash_key",
    "ChordNode",
    "ChordRing",
    "LookupResult",
    "KadopIndex",
    "MembershipEvent",
]
