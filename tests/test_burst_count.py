"""A pipeline counts a burst once.

``CompiledPipeline._run_batch_from`` takes one ``len`` of a burst and adds it
to ``CompileStats.batch_items`` for every ``apply_many`` stage it runs and to
its ``items_out`` at the tail.  That rests on one invariant: every
``apply_many`` returns a list as long as its input (a FILTER stage has none:
its group hands the pipeline the survivors).  The loop that recounted the
burst at every stage is frozen below as ``recounting_run_batch_from``, and
checks the invariant as it goes.  Over generated subscriptions and bursts
through the compile differential's pipelines -- twins sharing a stage's
result, a JOIN feeding a RESTRUCTURE, a FILTER -> RESTRUCTURE ->
RESTRUCTURE chain and a later subscription that lights a dark boundary --
both loops must leave the same stats, the same per-pipeline counts and the
same deliveries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.plan import RESTRUCTURE, PlanNode
from repro.algebra.template import RestructureTemplate
from repro.compile.pipeline import CompiledPipeline
from repro.filtering.conditions import FilterSubscription, SimpleCondition
from repro.workloads.chaos_feed import CHAOS_FUNCTION
from repro.xmlmodel import Element, to_xml

from test_compile_differential import (
    JOIN_TEXT,
    _chaos_alerter_node,
    _chaos_alerts,
    _chaos_subscription,
    _deploy,
    _filter_node,
    _single_peer,
)

# -- the loop, as it was ---------------------------------------------------------------


def recounting_run_batch_from(self, batch, memo, i=0):
    """``_run_batch_from`` counting each stage's own burst, which must keep
    the length of the burst it was handed."""
    stages, boundaries, stats, last = self.stages, self.boundaries, self.stats, self._last
    while True:
        stage = stages[i]
        if stage.apply_many is not None:
            stats.batch_invocations += 1
            stats.batch_items += len(batch)
            key = (stage.signature, id(batch))
            if key in memo:
                batch = memo[key]
            else:
                handed = len(batch)
                batch = memo[key] = stage.apply_many(batch)
                assert type(batch) is list and len(batch) == handed, stage.signature
        boundary = boundaries[i]
        if i == last:
            self.items_out += len(batch)
            boundary.stream.emit_trusted(batch)
            return
        if self._entries[i + 1] is not None and not (boundary.channel and boundary.channel.subscribers):
            for stream, baseline in boundary.watches:
                if len(stream._subscribers) > baseline:
                    break
            else:
                i += 1
                continue
        boundary.stream.emit_trusted(batch)
        return


# -- the runs --------------------------------------------------------------------------

TEMPLATES = ["<seen><n>{$x.n}</n></seen>", '<other n="{$x.n}" k="s"/>', "<src>{$x.source}</src>"]


def double_restructure(threshold: int) -> PlanNode:
    """FILTER -> RESTRUCTURE -> RESTRUCTURE, one fused chain."""
    subscription = FilterSubscription(f"dr{threshold}", [SimpleCondition("n", ">=", str(threshold))], [])
    first = PlanNode(
        RESTRUCTURE,
        {"template": RestructureTemplate(Element("seen", {"n": "{$x.n}"})), "var": "x"},
        [_filter_node(subscription, [_chaos_alerter_node()])],
        placement="solo",
    )
    return PlanNode(
        RESTRUCTURE,
        {"template": RestructureTemplate(Element("again", {}, [Element("m", text="{$x.n}")])), "var": "x"},
        [first],
        placement="solo",
    )


def run(subscriptions, late, bursts, join, chain) -> tuple:
    system, peer = _single_peer()
    results = []
    for index, (threshold, template) in enumerate(subscriptions):
        results.append(_chaos_subscription(peer, f"q{index}", TEMPLATES[template], threshold)[1])
    if join:
        got: list[str] = []
        peer.subscribe(JOIN_TEXT, sub_id="j0").on_result(lambda item: got.append(to_xml(item)))
        results.append(got)
    if chain is not None:
        record = _deploy(system, double_restructure(chain), "dr")
        chained: list[str] = []
        record.valve.subscribe(lambda item: chained.append(to_xml(item)) if isinstance(item, Element) else None)
        results.append(chained)
    system.run()
    alerter = peer.alerter(CHAOS_FUNCTION)
    for number, burst in enumerate(bursts):
        if number == len(bursts) // 2 and late is not None:
            # reuses a dark FILTER boundary of an earlier pipeline: it goes live
            results.append(_chaos_subscription(peer, "late", TEMPLATES[late[1]], late[0])[1])
            system.run()
        if len(burst) == 1:
            alerter.emit_numbered(burst[0])
        else:
            alerter.output.emit_many(_chaos_alerts(burst))
        system.run()
    stats = system.compile_stats
    pipelines = [(p.sub_id, p.items_in, p.items_out) for p in system.compiled_pipelines()]
    return stats.batch_invocations, stats.batch_items, stats.item_invocations, pipelines, results


subscription_lists = st.lists(st.tuples(st.integers(0, 4), st.integers(0, len(TEMPLATES) - 1)), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    subscriptions=subscription_lists,
    late=st.none() | st.tuples(st.integers(0, 4), st.integers(0, len(TEMPLATES) - 1)),
    bursts=st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=8), min_size=1, max_size=6),
    join=st.booleans(),
    chain=st.none() | st.integers(0, 4),
)
def test_one_count_per_burst_equals_the_per_stage_recount(subscriptions, late, bursts, join, chain):
    counted = run(subscriptions, late, bursts, join, chain)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(CompiledPipeline, "_run_batch_from", recounting_run_batch_from)
        recounted = run(subscriptions, late, bursts, join, chain)
    assert counted == recounted
    if any(len(burst) > 1 and max(burst) >= 4 for burst in bursts):
        assert counted[1] > 0  # a burst reached an apply_many stage
