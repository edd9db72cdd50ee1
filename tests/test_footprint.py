"""What a deployed subscription keeps alive, as an exact count.

A subscription keeps records, not renderings or closures: KadoP stores the
description record and renders its document on read, the ledger's undo
actions, a stream's unsubscribers and a pipeline's stage entries are
partials, bound methods or one slotted object, and a channel builds its
forwarder for its first subscriber.  The count is the growth of
``gc.get_objects()`` across ``subscribe_many`` and the ``run()`` that
settles it, per subscription, on each benchmark deck at a tenth of its size;
the collector is off while it is taken.  ``python3 scripts/delivery_tail.py
footprint W`` takes the same count at full size, with bytes by file.
"""

from __future__ import annotations

import gc
import random

import pytest

from perf.workloads import WORKLOADS
from repro.monitor.subscription import DEPLOYED

#: objects per subscription at a tenth of the deck (88.67 / 100.11 / 87.85
#: when set, from 90.58 / 103.16 / 88.79 before a KadoP posting held a bare
#: id until its second document and a batch wrote its descriptions in one
#: pass), plus 10 %; `ingest` 87.14 since a reuse hit may stamp its rewrite's
#: recipe (`fanout` 89.67: each cached rewrite keeps its last recipe)
BUDGETS = {"fanout": 95, "filter": 103, "ingest": 95}


def subscribed(name: str):
    """The deck's rig with every subscription deployed, and the objects each added."""
    workload = WORKLOADS[name]
    plan = workload.deal(random.Random(f"{name}/1/0"), workload.sizes(0.1))
    system = workload.rig(plan).system
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for peer_id, indices in plan.batches:
            handles = system.peer(peer_id).subscribe_many(
                [plan.texts[i] for i in indices], sub_ids=[f"s{i}" for i in indices], reuse=workload.reuse
            )
            assert len(handles) == len(indices)
        system.run()
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    return system, grown / len(plan.subs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_objects_per_subscription_within_budget(name: str):
    _, per_subscription = subscribed(name)
    assert per_subscription <= BUDGETS[name], f"{name}: {per_subscription:.2f} objects per subscription"


def test_the_budgets_cover_the_decks():
    assert set(BUDGETS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_channel_nobody_subscribed_to_holds_no_forwarder(name: str):
    system, _ = subscribed(name)
    idle = subscribed_to = 0
    for peer_id in system.peer_ids:
        registry = system.peer(peer_id).net.channels
        for channel_id in registry.published_ids:
            channel = registry.published(channel_id)
            assert not hasattr(channel, "__dict__") and not hasattr(channel.stream.stats, "__dict__")
            if channel.subscribers:
                subscribed_to += 1
                assert channel.forward in channel.stream._subscribers
            else:
                idle += 1
                assert channel.forward is None, channel.qualified_id
    assert idle > subscribed_to if name == "filter" else idle > 0


def test_a_deployed_filter_subscription_holds_no_empty_container():
    """Nothing paused, nobody subscribed to: no valve has built its pause
    buffer, no channel a subscriber or a dead set."""
    system, _ = subscribed("filter")
    valves = [record.valve for peer_id in system.peer_ids
              for record in system.peer(peer_id).manager.database.with_status(DEPLOYED)]
    assert len(valves) == 200 and all(valve._pending is None for valve in valves)
    idle = 0
    for peer_id in system.peer_ids:
        registry = system.peer(peer_id).net.channels
        for channel_id in registry.published_ids:
            channel = registry.published(channel_id)
            assert not isinstance(channel.dead, set), channel.qualified_id
            if not channel.subscribers:
                idle += 1
                assert not isinstance(channel.subscribers, set), channel.qualified_id
    assert idle >= len(valves)
