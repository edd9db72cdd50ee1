"""Differential correctness tests for the compiled filtering engine.

The two-stage FilterOperator (preFilter + bitmask AES + lazy-DFA YFilter,
all with their caches) must be extensionally indistinguishable from
evaluating every subscription directly via
:meth:`FilterSubscription.matches_extensionally`.  These tests run the
randomized benchmark workloads through both and require identical match
sets, item by item and subscription by subscription.
"""

from types import SimpleNamespace

import pytest

from benchmarks.conftest import make_alert_items, make_subscription_set
from benchmarks.bench_yfilter import make_path_queries
from repro.algebra import GroupOperator, PlanNode, UnionOperator
from repro.algebra.plan import ALERTER, FILTER
from repro.compile import CompiledPlanCache, CompileStats, MaterializedTable, PlanCompiler
from repro.filtering import FilterOperator, NaiveFilter, YFilterSigma
from repro.streams import Stream, collect
from repro.xmlmodel import Element, XPath


def oracle_matches(subscriptions, item):
    return sorted(
        subscription.sub_id
        for subscription in subscriptions
        if subscription.matches_extensionally(item)
    )


class TestFilterOperatorDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_oracle_on_random_workloads(self, seed):
        items = make_alert_items(40, seed=seed)
        subscriptions = make_subscription_set(300, seed=seed + 100)
        filter_op = FilterOperator(subscriptions)
        for item in items:
            assert filter_op.process(item).matched == oracle_matches(
                subscriptions, item
            )

    def test_matches_oracle_with_computed_conditions(self):
        items = make_alert_items(40, seed=7)
        subscriptions = make_subscription_set(300, seed=8, computed_fraction=0.5)
        filter_op = FilterOperator(subscriptions)
        for item in items:
            assert filter_op.process(item).matched == oracle_matches(
                subscriptions, item
            )

    def test_matches_naive_filter_batch(self):
        """The naive baseline and the engine's batch path are the same oracle."""
        items = make_alert_items(30, seed=9)
        subscriptions = make_subscription_set(200, seed=10, computed_fraction=0.3)
        fast = FilterOperator(subscriptions)
        naive = NaiveFilter(subscriptions)
        fast_results = fast.process_batch(items)
        naive_results = naive.process_batch(items)
        for fast_result, naive_result in zip(fast_results, naive_results):
            assert fast_result.matched == naive_result.matched

    def test_repeated_items_hit_caches_and_agree(self):
        """Cache-served answers must equal first-computation answers."""
        items = make_alert_items(20, seed=11)
        subscriptions = make_subscription_set(150, seed=12)
        filter_op = FilterOperator(subscriptions)
        first = [filter_op.process(item).matched for item in items]
        assert filter_op.mask_cache_hits + filter_op.mask_cache_misses == len(items)
        second = [filter_op.process(item).matched for item in items]
        assert first == second
        # the second pass is answered from the per-mask plan cache
        assert filter_op.mask_cache_hits >= len(items)

    def test_subscriptions_added_after_processing_are_seen(self):
        """Cache invalidation: new subscriptions must not be masked by caches."""
        items = make_alert_items(10, seed=13)
        subscriptions = make_subscription_set(50, seed=14)
        filter_op = FilterOperator(subscriptions)
        for item in items:
            filter_op.process(item)
        extra = make_subscription_set(30, seed=15)
        for subscription in extra:
            subscription.sub_id = f"extra-{subscription.sub_id}"
            filter_op.add_subscription(subscription)
        combined = subscriptions + extra
        for item in items:
            assert filter_op.process(item).matched == oracle_matches(combined, item)


class TestYFilterDifferential:
    def test_lazy_dfa_agrees_with_xpath(self):
        items = make_alert_items(25, seed=20)
        queries = make_path_queries(150, seed=21)
        nfa = YFilterSigma()
        compiled = {}
        for index, query in enumerate(queries):
            nfa.add_query(f"q{index}", query)
            compiled[f"q{index}"] = XPath.compile(query)
        for item in items:
            expected = {qid for qid, query in compiled.items() if query.matches(item)}
            assert nfa.match(item) == expected

    def test_lazy_dfa_and_pruned_path_agree(self):
        """Full matching and active_queries-pruned matching give the same ids."""
        items = make_alert_items(25, seed=22)
        queries = make_path_queries(120, seed=23)
        nfa = YFilterSigma()
        all_ids = set()
        for index, query in enumerate(queries):
            nfa.add_query(f"q{index}", query)
            all_ids.add(f"q{index}")
        half = {qid for qid in all_ids if int(qid[1:]) % 2 == 0}
        for item in items:
            full = nfa.match(item)
            assert nfa.match(item, active_queries=set(all_ids)) == full
            assert nfa.match(item, active_queries=half) == full & half
            assert nfa.match(item, active_queries=set()) == set()

    def test_dfa_cache_serves_repeated_shapes(self):
        items = make_alert_items(30, seed=24)
        nfa = YFilterSigma()
        for index, query in enumerate(make_path_queries(80, seed=25)):
            nfa.add_query(f"q{index}", query)
        first = [nfa.match(item) for item in items]
        hits_after_first = nfa.dfa_cache_hits
        second = [nfa.match(item) for item in items]
        assert first == second
        # the second pass traverses via cached transitions only
        assert nfa.dfa_cache_misses + nfa.dfa_cache_hits > 0
        assert nfa.dfa_cache_hits > hits_after_first
        assert nfa.dfa_state_count > 0

    @pytest.mark.parametrize(
        "query",
        [
            # relative paths: first child-axis step starts at root.children
            "b",
            "a/b",
            "soap/Envelope",
            "alert",
            "Envelope//Body",
            "*/Body",
            # empty structural prefix: attribute / text() first steps
            "@callId",
            "//@callId",
            "@missing",
            "text()",
            "//text()",
        ],
    )
    def test_relative_and_attribute_first_queries_match_oracle(self, query):
        from repro.xmlmodel import parse_xml

        items = make_alert_items(15, seed=27)
        docs = items + [
            parse_xml("<b><x/></b>"),
            parse_xml("<a><a><b/></a></a>"),
            parse_xml('<c x="1"><b/></c>'),
            parse_xml("<alert><soap><Envelope><Body/></Envelope></soap></alert>"),
        ]
        compiled = XPath.compile(query)
        nfa = YFilterSigma()
        nfa.add_query("q", query)
        for doc in docs:
            assert (nfa.match(doc) == {"q"}) == compiled.matches(doc), (
                query,
                doc.tag,
            )

    def test_adding_query_invalidates_dfa(self):
        items = make_alert_items(10, seed=26)
        nfa = YFilterSigma()
        nfa.add_query("a", "//Body")
        for item in items:
            nfa.match(item)
        nfa.add_query("b", "//Body")  # same shape, new id
        for item in items:
            result = nfa.match(item)
            assert ("a" in result) == ("b" in result)


class TestBitmaskMachinery:
    def test_mask_of_matches_condition_mask(self):
        subscriptions = make_subscription_set(80, seed=50)
        filter_op = FilterOperator(subscriptions)
        for subscription in subscriptions:
            assert filter_op.aes.mask_of(
                subscription.sub_id
            ) == subscription.condition_mask(filter_op.conditions)

    def test_inconsistent_mask_clamps_and_does_not_poison_cache(self):
        """The mask is the AES cache key, so it is authoritative over the list."""
        subscriptions = make_subscription_set(80, seed=51)
        filter_op = FilterOperator(subscriptions)
        aes = filter_op.aes
        items = make_alert_items(10, seed=52)
        for item in items:
            mask, ids = filter_op.prefilter.satisfied(item)
            if not ids:
                continue
            # drop one id from the mask but keep the full list: the cached
            # result for the narrow mask must only contain subscriptions
            # subsumed by that narrow mask
            narrow_mask = mask & ~(1 << ids[-1])
            narrow = aes.match(ids, narrow_mask)
            for sub_id in narrow.all_ids():
                assert aes.mask_of(sub_id) & narrow_mask == aes.mask_of(sub_id)
            # a later consistent call with the narrow mask gets the same
            # (unpoisoned) cached answer
            narrow_ids = [cid for cid in ids if cid != ids[-1]]
            consistent = aes.match(narrow_ids, narrow_mask)
            assert sorted(consistent.all_ids()) == sorted(narrow.all_ids())


class TestBatchPaths:
    def test_process_batch_equals_per_item(self):
        items = make_alert_items(25, seed=30)
        subscriptions = make_subscription_set(120, seed=31, computed_fraction=0.25)
        one = FilterOperator(subscriptions)
        two = FilterOperator(subscriptions)
        per_item = [one.process(item).matched for item in items]
        batched = [result.matched for result in two.process_batch(items)]
        assert per_item == batched
        assert one.items_processed == two.items_processed == len(items)

    def test_filter_group_batch_equals_per_item(self):
        """Per member, a burst through the group keeps exactly the items a loop
        of ``emit`` keeps, and both are what NaiveFilter says."""
        items = make_alert_items(40, seed=32)
        subscriptions = make_subscription_set(60, seed=33, computed_fraction=0.25)
        naive_results = NaiveFilter(subscriptions).process_batch(items)
        compiler = PlanCompiler(MaterializedTable(), CompiledPlanCache(), CompileStats())
        stream = Stream("src")
        singly: dict[str, list] = {s.sub_id: [] for s in subscriptions}
        batched: dict[str, list] = {s.sub_id: [] for s in subscriptions}
        for subscription in subscriptions:
            node = PlanNode(
                FILTER, {"subscription": subscription}, [PlanNode(ALERTER, placement="p")],
                placement="p",
            )
            (stage,) = compiler.compile_segment([node])
            assert stage.apply is None and stage.apply_many is None  # decided by the group

            def entry(item, sink=singly[subscription.sub_id]) -> None:
                sink.append(item)

            entry.batch = lambda batch, memo, sink=batched[subscription.sub_id]: sink.extend(batch)
            compiler.filter_group(stream, SimpleNamespace(service_registry=None)).join(
                stage.signature, subscription, entry
            )
        group = compiler.groups[stream]
        assert 1 < len(group.index) < len(subscriptions), "twins must share index entries"
        for item in items:
            stream.emit(item)
        stream.emit_many(items)
        for subscription in subscriptions:
            expected = [
                result.item for result in naive_results
                if subscription.sub_id in result.matched
            ]
            assert singly[subscription.sub_id] == expected
            assert batched[subscription.sub_id] == expected
        assert group.items == 2 * len(items)

    def test_group_operator_cadence_identical_under_batching(self):
        """items_in must advance per item so `every`-based snapshots agree."""

        def run(batched: bool):
            src = Stream("src")
            group = GroupOperator(key=lambda item: item.tag, every=2)
            group.connect(src)
            out = collect(group.output)
            items = [Element(tag) for tag in ["a", "b", "a", "c", "b"]]
            if batched:
                src.emit_many(items)
            else:
                for item in items:
                    src.emit(item)
            src.close()
            return [item.attrib["total"] for item in out], group.items_in

        assert run(batched=False) == run(batched=True)

    def test_union_operator_batch_accounting(self):
        src = Stream("src")
        union = UnionOperator()
        union.connect(src)
        out = collect(union.output)
        src.emit_many([Element("a"), Element("b")])
        assert union.items_in == union.items_out == len(out) == 2


class TestCounterConsistency:
    def test_reset_counters_resets_every_stage(self):
        items = make_alert_items(20, seed=40)
        subscriptions = make_subscription_set(100, seed=41)
        filter_op = FilterOperator(subscriptions)
        filter_op.process_batch(items)
        filter_op.process_batch(items)  # generate cache hits everywhere
        filter_op.reset_counters()
        assert filter_op.items_processed == 0
        assert filter_op.items_matched == 0
        assert filter_op.complex_evaluations == 0
        assert filter_op.materializations == 0
        assert filter_op.mask_cache_hits == 0
        assert filter_op.mask_cache_misses == 0
        assert filter_op.prefilter.documents_processed == 0
        assert filter_op.prefilter.conditions_evaluated == 0
        assert filter_op.prefilter.cache_hits == 0
        assert filter_op.prefilter.cache_misses == 0
        assert filter_op.aes.nodes_visited == 0
        assert filter_op.yfilter.elements_processed == 0
        assert filter_op.yfilter.dfa_cache_hits == 0
        assert filter_op.yfilter.dfa_cache_misses == 0

    def test_reset_keeps_caches_warm_but_counters_zero(self):
        """reset_counters clears statistics, not the compiled caches."""
        items = make_alert_items(15, seed=42)
        subscriptions = make_subscription_set(80, seed=43)
        filter_op = FilterOperator(subscriptions)
        expected = [filter_op.process(item).matched for item in items]
        filter_op.reset_counters()
        again = [filter_op.process(item).matched for item in items]
        assert again == expected
        # warm caches answer the repeat pass
        assert filter_op.mask_cache_hits == len(items) - filter_op.mask_cache_misses
        assert filter_op.items_processed == len(items)

    def test_naive_filter_reset_counters(self):
        items = make_alert_items(5, seed=44)
        naive = NaiveFilter(make_subscription_set(20, seed=45))
        naive.process_batch(items)
        naive.reset_counters()
        assert naive.items_processed == 0
        assert naive.evaluations == 0
        assert naive.materializations == 0
