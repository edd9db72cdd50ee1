#!/usr/bin/env python
"""Run a named chaos scenario and check its invariants.

Usage::

    PYTHONPATH=src python scenarios/run_scenario.py --list
    PYTHONPATH=src python scenarios/run_scenario.py partition-heal --seed 7
    PYTHONPATH=src python scenarios/run_scenario.py churn-soak --seed 3 \
        --check-determinism --json

Exit codes: 0 all invariants hold (and, with ``--check-determinism``, the
two same-seed runs produced byte-identical traces); 1 an invariant failed;
2 the determinism check failed; 4 the ``--compare-runtimes`` differential
found a single-vs-sharded result-multiset divergence.  The nightly
``chaos-soak`` workflow sweeps the (scenario x seed) matrix through this
entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.scenarios import make_scenario, scenario_names  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", nargs="?", help="scenario name (see --list)")
    parser.add_argument("--seed", type=int, default=0, help="scenario seed (default 0)")
    parser.add_argument(
        "--failure-mode",
        choices=("detector", "oracle"),
        default=None,
        help="override how failures are noticed (default: the scenario's own, "
        "normally 'detector')",
    )
    parser.add_argument(
        "--runtime",
        choices=("single", "sharded"),
        default=None,
        help="execution runtime (default 'single'; 'sharded' partitions the "
        "peers across worker processes and forces failure-mode 'oracle')",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="worker-process count of a sharded run (default: the scenario's "
        "own, 2, or 3 for the worker-fault scenarios)",
    )
    parser.add_argument(
        "--compare-runtimes",
        action="store_true",
        help="run the scenario single-process and sharded (both in oracle "
        "failure mode) and require the same multiset of delivered results",
    )
    parser.add_argument("--list", action="store_true", help="list known scenarios")
    parser.add_argument(
        "--check-determinism",
        action="store_true",
        help="run twice and require byte-identical event traces",
    )
    parser.add_argument("--json", action="store_true", help="print the full summary as JSON")
    args = parser.parse_args(argv)

    if args.list:
        for name in scenario_names():
            print(name)
        return 0
    if not args.scenario:
        parser.error("a scenario name is required (or --list)")

    result = make_scenario(
        args.scenario,
        seed=args.seed,
        failure_mode=args.failure_mode,
        runtime=args.runtime,
        shards=args.shards,
    ).run()

    if args.json:
        print(json.dumps(result.summary(), indent=2))
    else:
        print(
            f"{result.name} seed={result.seed}: emitted={len(result.emitted)} "
            f"received={len(result.received)} status={result.final_status} "
            f"recoveries={sum(1 for e in result.recovery_events if e.outcome == 'recovering')}"
        )
        for invariant in result.invariants:
            mark = "PASS" if invariant.ok else "FAIL"
            print(f"  [{mark}] {invariant.name}: {invariant.detail}")
        print(f"  trace fingerprint: {result.fingerprint}")

    exit_code = 0 if result.ok else 1

    if args.check_determinism:
        replay = make_scenario(
            args.scenario,
            seed=args.seed,
            failure_mode=args.failure_mode,
        ).run()
        if replay.fingerprint != result.fingerprint:
            print(
                "DETERMINISM VIOLATION: same seed produced different traces "
                f"({result.fingerprint} vs {replay.fingerprint})"
            )
            return 2
        print("  determinism: identical trace on replay")

    if args.compare_runtimes:
        # sharded forces oracle failure mode, so the single-process baseline
        # must run oracle too for the delivered multisets to be comparable
        single = make_scenario(
            args.scenario,
            seed=args.seed,
            failure_mode="oracle",
        ).run()
        sharded = make_scenario(
            args.scenario,
            seed=args.seed,
            runtime="sharded",
            shards=args.shards,
        ).run()
        if sorted(single.received) != sorted(sharded.received):
            print(
                "RUNTIME DIVERGENCE: single-process and sharded runs "
                f"delivered different result multisets "
                f"({len(single.received)} vs {len(sharded.received)} results)"
            )
            return 4
        print(
            f"  runtimes: sharded delivered the same {len(single.received)} "
            "results as single-process"
        )

    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
