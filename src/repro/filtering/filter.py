"""FilterOperator: the full two-stage filter of Section 4.

Processing of one stream item:

1. :class:`PreFilter` reads the root attributes and returns the satisfied
   simple conditions as an ordered id list plus a bitmask.
2. :class:`AESFilter` finds (i) simple subscriptions entirely satisfied and
   (ii) *active* complex subscriptions, i.e. those whose simple conditions
   are all satisfied and whose tree-pattern queries must still be checked.
3. :class:`YFilterSigma`, virtually pruned to the active subscriptions,
   checks the tree-pattern queries.

ActiveXML laziness: if the item carries intensional content (``sc`` service
calls) it is materialised *only* when step 3 actually runs, so items
rejected by their simple conditions never trigger the external call.

The compiled engine memoises, per satisfied-condition **bitmask**, the whole
outcome of stage 2 *plus* its bookkeeping: which matched subscriptions still
need LET-derived (computed) conditions evaluated, which active complex
subscriptions exist, and the frozen set of YFilter query ids they activate.
Two items satisfying the same simple conditions — the overwhelmingly common
case for machine-generated alert streams — therefore skip straight from the
preFilter to the (DFA-cached) tree-pattern check.  :meth:`process_batch`
amortises the remaining per-item dispatch for alerter bursts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.filtering.aes import AESFilter
from repro.filtering.conditions import ConditionRegistry, FilterSubscription
from repro.filtering.prefilter import PreFilter, flatten_parts
from repro.filtering.yfilter import YFilterSigma
from repro.xmlmodel.axml import ServiceRegistry, has_service_calls, materialize
from repro.xmlmodel.tree import Element

#: Bound on the per-satisfied-mask plan cache (cleared wholesale when full).
MAX_MASK_CACHE = 65536


@dataclass
class FilterResult:
    """Matches of one stream item against the subscription set."""

    item: Element
    matched: list[str] = field(default_factory=list)

    @property
    def any(self) -> bool:
        return bool(self.matched)


@dataclass(slots=True)
class _MaskPlan:
    """Everything stage 2 derives from one satisfied-condition bitmask."""

    simple_plain: tuple[str, ...]
    simple_computed: tuple[str, ...]
    complex_plain: tuple[str, ...]
    complex_computed: tuple[str, ...]
    plain_query_ids: frozenset[str]


class FilterOperator:
    """Matches stream items against a (large) set of filter subscriptions.

    ``service_registry`` may be a zero-argument callable returning the current
    registry: a deployed filter resolves its peer's per materialisation.
    """

    def __init__(
        self,
        subscriptions: list[FilterSubscription] | None = None,
        service_registry: ServiceRegistry | Callable[[], ServiceRegistry | None] | None = None,
    ) -> None:
        self.service_registry = service_registry
        # counters used by benchmarks and tests
        self.items_processed = 0
        self.items_matched = 0
        self.complex_evaluations = 0
        self.materializations = 0
        self.mask_cache_hits = 0
        self.mask_cache_misses = 0
        self._rebuild(subscriptions or [])

    # -- subscription management ---------------------------------------------------

    def _rebuild(self, subscriptions: Iterable[FilterSubscription]) -> None:
        """Build all three stages from scratch over ``subscriptions`` (their
        own counters restart): how dead conditions and queries are forgotten."""
        self.conditions = ConditionRegistry()
        self.prefilter = PreFilter(self.conditions)
        self.aes = AESFilter(self.conditions)
        self.yfilter = YFilterSigma()
        self._subscriptions: dict[str, FilterSubscription] = {}
        self._query_ids: dict[str, tuple[str, ...]] = {}
        #: path text (one automaton query each) -> live subscriptions carrying
        #: it; one no longer here is *dead*: ``match`` prunes it, never active
        self._query_users: dict[str, int] = {}
        self._mask_cache: dict[int, _MaskPlan] = {}
        for subscription in subscriptions:
            self.add_subscription(subscription)

    def add_subscription(self, subscription: FilterSubscription) -> None:
        """Register a subscription (offline adjustment of the filter)."""
        if subscription.sub_id in self._subscriptions:
            raise ValueError(f"subscription {subscription.sub_id!r} already registered")
        self._subscriptions[subscription.sub_id] = subscription
        self.aes.add_subscription(subscription)
        users = self._query_users
        for query in subscription.complex_queries:
            if query.expression not in self.yfilter:
                self.yfilter.add_query(query.expression, query)
            users[query.expression] = users.get(query.expression, 0) + 1
        self._query_ids[subscription.sub_id] = tuple(q.expression for q in subscription.complex_queries)
        # cached plans may be missing the new subscription
        self._mask_cache.clear()

    def remove_subscription(self, sub_id: str) -> None:
        """Unregister a subscription; its AES marking goes at once.

        Conditions and tree patterns no other subscription uses stay
        registered but dead (condition ids are stable, the automaton cannot
        shrink); once more than half of either kind is dead the stages are
        rebuilt from the live subscriptions -- amortised over the removals.
        """
        subscription = self._subscriptions.pop(sub_id)
        self.aes.remove_subscription(subscription)
        users = self._query_users
        for query_id in self._query_ids.pop(sub_id):
            users[query_id] -= 1
            if not users[query_id]:
                del users[query_id]
        self._mask_cache.clear()
        if 2 * self.aes.live_conditions < len(self.conditions) or 2 * len(users) < self.yfilter.query_count:
            self._rebuild(list(self._subscriptions.values()))

    def subscription(self, sub_id: str) -> FilterSubscription:
        return self._subscriptions[sub_id]

    @property
    def subscription_ids(self) -> list[str]:
        return sorted(self._subscriptions)

    def __len__(self) -> int:
        return len(self._subscriptions)

    # -- item processing ---------------------------------------------------------------

    def match(self, item: Element) -> tuple[str, ...]:
        """Sorted identifiers of the subscriptions ``item`` satisfies: the very
        tuple cached with the mask's plan while nothing item-dependent matched."""
        self.items_processed += 1
        satisfied_mask, satisfied_parts = self.prefilter.satisfied_parts(item)
        plan = self._mask_cache.get(satisfied_mask)
        if plan is None:
            self.mask_cache_misses += 1
            plan = self._compile_plan(satisfied_mask, flatten_parts(satisfied_parts))
        else:
            self.mask_cache_hits += 1
        matched = plan.simple_plain
        if plan.simple_computed or plan.complex_plain or plan.complex_computed:
            subscriptions = self._subscriptions
            query_ids = self._query_ids
            extra = [s for s in plan.simple_computed if subscriptions[s].computed_hold(item)]
            active_complex: Sequence[str] = plan.complex_plain
            active_query_ids: frozenset[str] | set[str] = plan.plain_query_ids
            passing = [s for s in plan.complex_computed if subscriptions[s].computed_hold(item)]
            if passing:
                active_complex = [*active_complex, *passing]
                active_query_ids = active_query_ids.union(*(query_ids[s] for s in passing))
            if active_complex:
                self.complex_evaluations += len(active_complex)
                target = self._extensional_view(item)
                matched_queries = self.yfilter.match(target, active_query_ids)
                extra += [s for s in active_complex if matched_queries.issuperset(query_ids[s])]
            if extra:
                # plan.simple_plain is pre-sorted; only additions force a re-sort
                matched = tuple(sorted((*matched, *extra)))
        if matched:
            self.items_matched += 1
        return matched

    def process(self, item: Element) -> FilterResult:
        """Match one stream item; returns the identifiers of satisfied subscriptions."""
        return FilterResult(item=item, matched=list(self.match(item)))

    def process_batch(self, items: Iterable[Element]) -> list[FilterResult]:
        """Match a burst of stream items, amortising per-item dispatch."""
        process = self.process
        return [process(item) for item in items]

    def _compile_plan(self, satisfied_mask: int, satisfied_ids: list[int]) -> _MaskPlan:
        """Run stage 2 once for this satisfied-mask and memoise its outcome."""
        aes_match = self.aes.match(satisfied_ids, satisfied_mask)
        subscriptions, query_ids = self._subscriptions, self._query_ids
        simple, complex_ = aes_match.simple_matches, aes_match.active_complex
        complex_plain = tuple(s for s in complex_ if not subscriptions[s].computed)
        plan = _MaskPlan(
            simple_plain=tuple(sorted(s for s in simple if not subscriptions[s].computed)),
            simple_computed=tuple(s for s in simple if subscriptions[s].computed),
            complex_plain=complex_plain,
            complex_computed=tuple(s for s in complex_ if subscriptions[s].computed),
            plain_query_ids=frozenset(q for s in complex_plain for q in query_ids[s]),
        )
        if len(self._mask_cache) >= MAX_MASK_CACHE:
            self._mask_cache.clear()
        self._mask_cache[satisfied_mask] = plan
        return plan

    def _extensional_view(self, item: Element) -> Element:
        """Materialise intensional content only when complex queries must run."""
        registry = self.service_registry
        if registry is not None and not isinstance(registry, ServiceRegistry):
            registry = registry()
        if registry is not None and has_service_calls(item):
            self.materializations += 1
            return materialize(item, registry)
        return item

    def reset_counters(self) -> None:
        """Reset this operator's counters and those of all three stages."""
        self.items_processed = 0
        self.items_matched = 0
        self.complex_evaluations = 0
        self.materializations = 0
        self.mask_cache_hits = 0
        self.mask_cache_misses = 0
        self.prefilter.reset_counters()
        self.aes.reset_counters()
        self.yfilter.reset_counters()
