#!/usr/bin/env python
"""Run the filter benchmarks and write a ``BENCH_filter.json`` summary.

This is the perf-trajectory tracker for the compiled filtering engine: it
measures the two-stage :class:`FilterOperator` (experiment E2) and the
lazy-DFA :class:`YFilterSigma` (experiment E4) at several subscription /
query counts, records items/sec together with the engine's cache counters,
and writes one JSON document so successive PRs can be compared with a diff.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full run
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick    # smoke run
    PYTHONPATH=src python benchmarks/run_benchmarks.py --output /tmp/bench.json
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick \
        --compare BENCH_filter.json --tolerance 0.25              # CI gate

The quick mode is wired into the test suite (see
``tests/test_filter_differential.py``) so a broken benchmark harness fails
CI rather than being discovered at release time.  A differential check
against the naive oracle runs in both modes; the script refuses to write a
summary whose numbers come from a filter that disagrees with the oracle.

``--compare`` is the CI regression gate: rows of the fresh run are matched
against the baseline summary by experiment and subscription/query count,
and the script exits non-zero when any matched row's ``items_per_sec``
regressed by more than ``--tolerance`` (a fraction; 0.25 = 25%).  Quick
mode measures the same 100/1000 sizes the committed baseline records, so
the gate works on the smoke run too.

``--suite e2e`` delegates to :mod:`benchmarks.bench_e2e_throughput` (the
macro publish->deliver->process path, ``BENCH_e2e.json``) and ``--suite
ingest`` to :mod:`benchmarks.bench_ingest` (the control-plane subscription
ingestion path, ``BENCH_ingest.json``), both with the same
``--quick/--output/--compare/--tolerance`` contract; the default suite
stays ``filter`` so existing CI invocations are unchanged.  ``--suite
shard`` runs only the e2e suite's SHARD rows -- the single-process vs
sharded runtime scaling comparison -- writing to a scratch file by default
so the committed full-suite baseline is never clobbered.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.conftest import make_alert_items, make_subscription_set  # noqa: E402
from benchmarks.bench_yfilter import make_path_queries  # noqa: E402
from repro.filtering import FilterOperator, NaiveFilter, YFilterSigma  # noqa: E402


#: Seed-implementation throughput measured before the compiled engine landed
#: (PR 1, same machine/workloads: 150 alert items, warmless loop).  Kept here
#: so every future BENCH_filter.json carries its speedup-vs-seed factor.
SEED_BASELINE = {
    "filter_items_per_sec_at_10k_subscriptions": 650.4,
    "yfilter_items_per_sec_at_10k_queries": 4514.7,
}

def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else float("inf")


def _hit_rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def bench_filter_scaling(
    subscription_counts: list[int], n_items: int, rounds: int
) -> list[dict]:
    """E2: two-stage FilterOperator throughput vs number of subscriptions."""
    results = []
    items = make_alert_items(n_items, seed=1)
    for n_subscriptions in subscription_counts:
        build_start = time.perf_counter()
        filter_op = FilterOperator(make_subscription_set(n_subscriptions, seed=2))
        build_seconds = time.perf_counter() - build_start
        filter_op.process_batch(items)  # warm the mask/DFA/value caches
        filter_op.reset_counters()
        best = float("inf")
        matches = 0
        for _ in range(rounds):
            start = time.perf_counter()
            matches = sum(len(r.matched) for r in filter_op.process_batch(items))
            best = min(best, time.perf_counter() - start)
        results.append(
            {
                "experiment": "E2",
                "subscriptions": n_subscriptions,
                "items": n_items,
                "build_seconds": round(build_seconds, 6),
                "best_seconds": round(best, 6),
                "items_per_sec": round(_rate(n_items, best), 1),
                "matches": matches,
                "mask_cache_hit_rate": round(
                    _hit_rate(filter_op.mask_cache_hits, filter_op.mask_cache_misses), 4
                ),
                "prefilter_cache_hit_rate": round(
                    _hit_rate(
                        filter_op.prefilter.cache_hits, filter_op.prefilter.cache_misses
                    ),
                    4,
                ),
            }
        )
    return results


def bench_yfilter(query_counts: list[int], n_items: int, rounds: int) -> list[dict]:
    """E4: lazy-DFA YFilterSigma throughput vs number of path queries."""
    results = []
    items = make_alert_items(n_items, seed=5)
    for n_queries in query_counts:
        nfa = YFilterSigma()
        build_start = time.perf_counter()
        for index, query in enumerate(make_path_queries(n_queries, seed=6)):
            nfa.add_query(f"q{index}", query)
        build_seconds = time.perf_counter() - build_start
        for item in items:  # warm the DFA
            nfa.match(item)
        nfa.reset_counters()
        best = float("inf")
        matches = 0
        for _ in range(rounds):
            start = time.perf_counter()
            matches = sum(len(nfa.match(item)) for item in items)
            best = min(best, time.perf_counter() - start)
        results.append(
            {
                "experiment": "E4",
                "queries": n_queries,
                "items": n_items,
                "build_seconds": round(build_seconds, 6),
                "best_seconds": round(best, 6),
                "items_per_sec": round(_rate(n_items, best), 1),
                "matches": matches,
                "nfa_states": nfa.states_created,
                "dfa_states": nfa.dfa_state_count,
                "dfa_cache_hit_rate": round(
                    _hit_rate(nfa.dfa_cache_hits, nfa.dfa_cache_misses), 4
                ),
            }
        )
    return results


def bench_naive_reference(n_subscriptions: int, n_items: int) -> dict:
    """Single naive-oracle measurement, for the E2 speedup denominator."""
    items = make_alert_items(n_items, seed=1)
    naive = NaiveFilter(make_subscription_set(n_subscriptions, seed=2))
    start = time.perf_counter()
    matches = sum(len(r.matched) for r in naive.process_batch(items))
    seconds = time.perf_counter() - start
    return {
        "experiment": "E2",
        "strategy": "naive",
        "subscriptions": n_subscriptions,
        "items": n_items,
        "best_seconds": round(seconds, 6),
        "items_per_sec": round(_rate(n_items, seconds), 1),
        "matches": matches,
    }


def differential_check(n_subscriptions: int, n_items: int) -> int:
    """Assert FilterOperator ≡ naive oracle; returns the items compared."""
    items = make_alert_items(n_items, seed=3)
    subscriptions = make_subscription_set(n_subscriptions, seed=4, computed_fraction=0.3)
    fast = FilterOperator(subscriptions)
    naive = NaiveFilter(subscriptions)
    for item in items:
        fast_matched = fast.process(item).matched
        naive_matched = naive.process(item).matched
        if fast_matched != naive_matched:
            raise AssertionError(
                f"filter/oracle disagreement on {item.attrib}: "
                f"{fast_matched[:5]}... vs {naive_matched[:5]}..."
            )
    return len(items)


def run(quick: bool = False) -> dict:
    if quick:
        # the two smallest sizes of the full run, so --compare can match
        # quick-mode rows against the committed full-run baseline; several
        # best-of rounds keep the gate's rate measurements out of noise range
        subscription_counts = [100, 1000]
        query_counts = [100, 1000]
        n_items, rounds = 60, 5
        naive_subs, naive_items = 200, 10
        diff_subs, diff_items = 150, 25
    else:
        subscription_counts = [100, 1000, 10000]
        query_counts = [100, 1000, 10000]
        n_items, rounds = 150, 3
        naive_subs, naive_items = 1000, 50
        diff_subs, diff_items = 500, 100

    checked = differential_check(diff_subs, diff_items)
    summary = {
        "suite": "filter",
        "quick": quick,
        "differential_check": {
            "subscriptions": diff_subs,
            "items": checked,
            "agrees_with_naive_oracle": True,
        },
        "filter_scaling": bench_filter_scaling(subscription_counts, n_items, rounds),
        "yfilter": bench_yfilter(query_counts, n_items, rounds),
        "naive_reference": bench_naive_reference(naive_subs, naive_items),
    }
    if not quick:
        summary["seed_baseline"] = SEED_BASELINE
        filter_10k = next(
            (r for r in summary["filter_scaling"] if r["subscriptions"] == 10000), None
        )
        yfilter_10k = next(
            (r for r in summary["yfilter"] if r["queries"] == 10000), None
        )
        if filter_10k is not None:
            summary["speedup_vs_seed_filter_10k"] = round(
                filter_10k["items_per_sec"]
                / SEED_BASELINE["filter_items_per_sec_at_10k_subscriptions"],
                2,
            )
        if yfilter_10k is not None:
            summary["speedup_vs_seed_yfilter_10k"] = round(
                yfilter_10k["items_per_sec"]
                / SEED_BASELINE["yfilter_items_per_sec_at_10k_queries"],
                2,
            )
    return summary


def compare_to_baseline(summary: dict, baseline: dict, tolerance: float) -> list[str]:
    """Match rows by experiment and size; return regression descriptions.

    A row regresses when its ``items_per_sec`` falls more than ``tolerance``
    (a fraction) below the baseline's matching row.  Rows present in only
    one summary are ignored; having *no* matching row at all is reported as
    an error so a misconfigured gate cannot silently pass.
    """
    problems: list[str] = []
    matched = 0
    for list_name, size_key in (
        ("filter_scaling", "subscriptions"),
        ("yfilter", "queries"),
    ):
        baseline_rows = {
            row[size_key]: row for row in baseline.get(list_name, [])
        }
        for row in summary.get(list_name, []):
            reference = baseline_rows.get(row[size_key])
            if reference is None:
                continue
            matched += 1
            floor = reference["items_per_sec"] * (1.0 - tolerance)
            if row["items_per_sec"] < floor:
                problems.append(
                    f"{list_name}[{size_key}={row[size_key]}]: "
                    f"{row['items_per_sec']:.1f} items/s is below "
                    f"{floor:.1f} (baseline {reference['items_per_sec']:.1f} "
                    f"- {tolerance:.0%} tolerance)"
                )
    if matched == 0:
        problems.append(
            "no benchmark rows matched the baseline: the regression gate "
            "compared nothing (size mismatch between run and baseline?)"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=("filter", "e2e", "ingest", "shard"),
        default="filter",
        help="which benchmark suite to run (default: filter); 'shard' runs "
        "only the e2e suite's runtime-scaling rows (single vs sharded)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument(
        "--output",
        "--out",
        dest="output",
        default=None,
        help="path of the JSON summary (default: repo-root BENCH_filter.json "
        "or BENCH_e2e.json, per --suite)",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="baseline summary to gate against (e.g. BENCH_filter.json); "
        "exits 1 on any items_per_sec regression beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional regression vs the baseline "
        "(default 0.25 for the filter suite, 0.4 for e2e and ingest)",
    )
    args = parser.parse_args(argv)
    if args.suite in ("e2e", "ingest", "shard"):
        if args.suite in ("e2e", "shard"):
            from benchmarks.bench_e2e_throughput import main as suite_main
        else:
            from benchmarks.bench_ingest import main as suite_main

        forwarded: list[str] = []
        if args.suite == "shard":
            forwarded += ["--only", "shard"]
            if not args.output:
                # a shard-only summary must not clobber the committed
                # full-suite BENCH_e2e.json baseline
                import tempfile

                args.output = str(
                    Path(tempfile.gettempdir()) / "bench_e2e_shard.json"
                )
        if args.quick:
            forwarded.append("--quick")
        if args.output:
            forwarded += ["--output", args.output]
        if args.compare:
            forwarded += ["--compare", args.compare]
        if args.tolerance is not None:
            forwarded += ["--tolerance", str(args.tolerance)]
        return suite_main(forwarded)
    if args.output is None:
        args.output = str(REPO_ROOT / "BENCH_filter.json")
    if args.tolerance is None:
        args.tolerance = 0.25
    # read the baseline before any output is written: --output may point at
    # the baseline file itself, and a gate comparing a run to its own freshly
    # written summary could never fail
    baseline = json.loads(Path(args.compare).read_text()) if args.compare else None
    summary = run(quick=args.quick)
    summary["generated_unix"] = round(time.time(), 1)
    out_path = Path(args.output)
    out_path.write_text(json.dumps(summary, indent=2) + "\n")
    for row in summary["filter_scaling"]:
        print(
            f"E2 filter  subs={row['subscriptions']:>6}  "
            f"{row['items_per_sec']:>9.1f} items/s  "
            f"mask-cache {row['mask_cache_hit_rate']:.0%}"
        )
    for row in summary["yfilter"]:
        print(
            f"E4 yfilter qrys={row['queries']:>6}  "
            f"{row['items_per_sec']:>9.1f} items/s  "
            f"dfa-cache {row['dfa_cache_hit_rate']:.0%}"
        )
    print(f"wrote {out_path}")
    if baseline is not None:
        problems = compare_to_baseline(summary, baseline, args.tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}")
            return 1
        print(f"regression gate: within {args.tolerance:.0%} of {args.compare}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
