"""E4 -- shared-prefix NFA (YFilterSigma) vs per-query path matching (Section 4, [8]).

Claim: grouping path queries by their common prefixes in one NFA makes the
per-document matching cost grow sub-linearly with the number of registered
queries, unlike evaluating every XPath separately.

Counted, not timed: ``YFilterSigma.elements_processed`` (one visit per
document element, whatever the query count -- the per-query baseline walks
the document once per query) and ``states_created`` (shared prefixes: fewer
states per query the more queries there are).
"""

import random
from functools import cache

import pytest

from repro.filtering import YFilterSigma
from repro.xmlmodel import XPath

from benchmarks.conftest import make_alert_items

QUERY_COUNTS = [10, 100, 500, 2000]
N_ITEMS = 100

_TAGS = ["Envelope", "Header", "Body", "param", "GetTemperature", "error", "alert"]


def make_path_queries(n_queries: int, seed: int = 0) -> list[str]:
    rng = random.Random(seed)
    queries = []
    for _ in range(n_queries):
        depth = rng.randint(1, 4)
        steps = [rng.choice(_TAGS) for _ in range(depth)]
        separators = [rng.choice(["/", "//"]) for _ in range(depth)]
        queries.append("".join(sep + step for sep, step in zip(separators, steps)))
    return queries


def build_nfa(queries: list[str]) -> YFilterSigma:
    nfa = YFilterSigma()
    for index, query in enumerate(queries):
        nfa.add_query(f"q{index}", query)
    return nfa


@cache
def measure(n_queries: int) -> dict[str, int]:
    items = make_alert_items(N_ITEMS, seed=5)
    queries = make_path_queries(n_queries, seed=6)
    nfa = build_nfa(queries)
    compiled = [XPath.compile(query) for query in queries]
    return {
        "matches": sum(len(nfa.match(item)) for item in items),
        "xpath_matches": sum(query.matches(item) for item in items for query in compiled),
        "elements_processed": nfa.elements_processed,
        "document_elements": sum(1 for item in items for _ in item.iter()),
        "states_created": nfa.states_created,
        "query_steps": sum(len(query.steps) for query in compiled),
    }


@pytest.mark.parametrize("n_queries", QUERY_COUNTS)
def test_nfa_visits_each_element_once_whatever_the_query_count(n_queries):
    counters = measure(n_queries)
    assert counters["elements_processed"] == counters["document_elements"]
    assert counters["matches"] == counters["xpath_matches"] > 0


def test_states_grow_sublinearly_with_the_query_count():
    per_query = [measure(n)["states_created"] / n for n in QUERY_COUNTS]
    assert per_query == sorted(per_query, reverse=True) and per_query[-1] < per_query[0] / 2
    # one automaton per query would need a state per step
    assert measure(QUERY_COUNTS[-1])["states_created"] < measure(QUERY_COUNTS[-1])["query_steps"] / 2


def test_nfa_and_xpath_agree():
    queries = make_path_queries(100, seed=10)
    nfa = build_nfa(queries)
    compiled = {f"q{index}": XPath.compile(query) for index, query in enumerate(queries)}
    for item in make_alert_items(30, seed=9):
        assert nfa.match(item) == {qid for qid, query in compiled.items() if query.matches(item)}
