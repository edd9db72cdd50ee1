"""The Filter stream processor (Section 4 of the paper).

Filtering is performed in two stages so that a very high rate of stream
items can be sustained:

1. *Simple conditions* -- equality/inequality tests on the attributes of the
   stream item's root -- are checked on the fly by :class:`PreFilter` and the
   matching conjunctions are found by :class:`AESFilter`, a hash-tree over
   ordered condition sequences (the Atomic Event Set algorithm of [15]).
2. Only the *complex* tree-pattern queries whose simple conditions are all
   satisfied ("active subscriptions") are evaluated, by :class:`YFilterSigma`,
   a shared-prefix NFA in the style of YFilter [8] virtually pruned to the
   active subscriptions.

:class:`FilterOperator` ties the three modules together and adds the
ActiveXML laziness of Section 4: intensional parts of an item (``sc``
service calls) are materialised only when a complex query actually needs to
look at them.  :mod:`repro.filtering.naive` provides the single-stage
baseline used by the benchmarks and by the differential-correctness tests.

All three stages run *compiled*: predicates are closures built at
registration time, the AES tree uses bitmask subsumption and its outcome is
cached per satisfied-mask, and the YFilter NFA is determinised lazily into a
DFA keyed by document shape.  ``docs/PERFORMANCE.md`` describes the engine,
its counters, and how the deployed system runs it (one per source stream).
"""

from repro.filtering.conditions import (
    ComputedCondition,
    ConditionRegistry,
    FilterSubscription,
    SimpleCondition,
)
from repro.filtering.prefilter import PreFilter
from repro.filtering.aes import AESFilter, AESMatch
from repro.filtering.yfilter import YFilterSigma
from repro.filtering.filter import FilterOperator, FilterResult
from repro.filtering.naive import NaiveFilter

__all__ = [
    "ComputedCondition",
    "ConditionRegistry",
    "FilterSubscription",
    "SimpleCondition",
    "PreFilter",
    "AESFilter",
    "AESMatch",
    "YFilterSigma",
    "FilterOperator",
    "FilterResult",
    "NaiveFilter",
]
