"""E11 -- stateful Duplicate-removal and Group operators under load (Sections 2-3).

``return distinct`` relies on Duplicate-removal; the Edos statistics rely on
Group.  Checked, not timed: the distinct items and the per-group counts they
produce on duplicate-heavy streams.
"""

import pytest

from repro.algebra import DuplicateRemovalOperator, GroupOperator, ValueRef
from repro.streams import Stream, collect
from repro.xmlmodel import Element

N_ITEMS = 5000
DISTINCT_VALUES = [10, 1000]


@pytest.mark.parametrize("distinct_values", DISTINCT_VALUES)
def test_duplicate_removal_keeps_one_item_per_value(distinct_values):
    items = [
        Element("alert", {"peer": f"peer{i % distinct_values}", "kind": "download"})
        for i in range(N_ITEMS)
    ]

    source = Stream("s")
    dedup = DuplicateRemovalOperator()
    dedup.connect(source)
    out = collect(dedup.output)
    for item in items:
        source.emit(item)
    assert len(out) == dedup.distinct_count == distinct_values


def test_group_operator_counts():
    items = [
        Element("alert", {"mirror": f"mirror{i % 3}.edos.org"}) for i in range(N_ITEMS)
    ]

    source = Stream("s")
    group = GroupOperator(key=ValueRef.attribute("item", "mirror"))
    group.connect(source)
    for item in items:
        source.emit(item)
    source.close()
    assert sum(group.counts.values()) == N_ITEMS
    assert len(group.counts) == 3
