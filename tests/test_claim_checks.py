"""Paper claims checked on counters, cheap enough for tier-1 (ROADMAP item 3).

The checks live beside the experiment they belong to (``EXPERIMENTS.md``);
importing them here is what makes tier-1 collect them.
"""

from benchmarks.bench_dht_discovery import (  # noqa: F401
    test_routing_cost_is_logarithmic_and_a_stream_costs_the_same_on_every_ring,
)
