#!/usr/bin/env python
"""End-to-end delivery throughput: publish -> channel fan-out -> SimNetwork -> proxy.

``BENCH_filter.json`` tracks the filter micro-path; this suite governs the
*macro* path the ROADMAP's "fast as the hardware allows" goal actually needs:
every published item fans out through a :class:`~repro.net.channel.Channel`,
is scheduled and delivered by :class:`~repro.net.simnet.SimNetwork`, lands in
a :class:`~repro.net.channel.RemoteChannelProxy` and reaches a per-subscriber
callback.  Measured at 100/1k/10k subscribers, with a perfect network and
with a fault model (loss + duplication + jitter + finite bandwidth), and
written to ``BENCH_e2e.json`` for the CI regression gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_e2e_throughput.py            # full
    PYTHONPATH=src python benchmarks/bench_e2e_throughput.py --quick
    PYTHONPATH=src python benchmarks/bench_e2e_throughput.py --quick \
        --output /tmp/bench_e2e.json --compare BENCH_e2e.json --tolerance 0.4

``--compare`` matches fan-out rows by ``(subscribers, faults)`` and pipeline
rows by ``(experiment, subscribers)``, failing when any matched row's
``deliveries_per_sec`` regressed beyond ``--tolerance``.

The PIPELINE experiment deploys real subscriptions (filter -> restructure
plans over one alerter feed, reuse disabled so every subscription runs its
own plan) and measures publish -> deliver throughput.  The PIPELINE-JOIN
experiment does the same over self-join plans (a fused filter pipeline
feeding each JOIN input).
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

from repro.monitor import P2PMSystem  # noqa: E402
from repro.net.faults import FaultModel  # noqa: E402
from repro.net.peer import Peer  # noqa: E402
from repro.net.simnet import SimNetwork  # noqa: E402
from repro.workloads.chaos_feed import CHAOS_FUNCTION  # noqa: E402
from repro.xmlmodel.tree import Element  # noqa: E402

#: Macro-path throughput measured immediately before the delivery fast path
#: landed (PR 4, same machine/workload).  Kept here so every future
#: BENCH_e2e.json carries its speedup-vs-pre-PR factor; the acceptance
#: criterion for PR 4 was >= 5x deliveries/sec at 1,000 subscribers.
PRE_PR_BASELINE = {
    "deliveries_per_sec_at_1k_subscribers_perfect": 22175.9,
    "deliveries_per_sec_at_1k_subscribers_faulty": 20410.9,
    "deliveries_per_sec_at_10k_subscribers_perfect": 16736.2,
}

#: The fault model used by every "faults" row: mild loss and duplication,
#: jitter that reorders, and a finite bandwidth so item size matters.
BENCH_FAULTS = FaultModel(
    loss_rate=0.02, duplication_rate=0.02, jitter=0.002, bandwidth=200_000
)


def make_item(n: int) -> Element:
    """One published item: a small alert tree (3 levels, ~200 weight units)."""
    return Element(
        "alert",
        {"type": "slowAnswer", "n": str(n)},
        [
            Element("call", {"callId": str(n % 97), "caller": "http://a.com"}),
            Element("body", {"sev": str(n % 5)}, text="x" * 80),
        ],
    )


def build_fanout(
    n_subscribers: int, seed: int, fault_model: FaultModel | None
) -> tuple[SimNetwork, object, list]:
    """A publisher peer, one channel, ``n_subscribers`` remote proxies."""
    network = SimNetwork(seed=seed)
    publisher = Peer("pub", network)
    stream = publisher.create_stream("s")
    publisher.publish_channel("ch", stream)
    proxies = []
    for i in range(n_subscribers):
        peer = Peer(f"sub{i}", network)
        proxies.append(peer.subscribe_channel("pub", "ch"))
    network.run()  # settle the subscribe handshakes on the perfect network
    network.set_fault_model(fault_model)
    counters = [0] * n_subscribers

    def make_sink(index: int):
        def sink(item: object) -> None:
            counters[index] += 1

        return sink

    for index, proxy in enumerate(proxies):
        proxy.subscribe(make_sink(index))
    return network, stream, counters


def measure(
    n_subscribers: int,
    n_items: int,
    rounds: int,
    fault_model: FaultModel | None,
    seed: int = 11,
) -> dict:
    """Best-of-``rounds`` publish+drain timing for one fan-out size."""
    network, stream, counters = build_fanout(n_subscribers, seed, fault_model)
    # keep (elapsed, delivered) as a pair so the reported rate's numerator
    # and denominator always come from the same round (delivery counts vary
    # round-to-round under a faulty network)
    best_elapsed = float("inf")
    best_delivered = 0
    next_n = 0
    for _ in range(rounds):
        items = [make_item(next_n + i) for i in range(n_items)]
        next_n += n_items
        before = sum(counters)
        start = time.perf_counter()
        stream.emit_many(items)
        network.run()
        elapsed = time.perf_counter() - start
        delivered = sum(counters) - before
        if delivered / elapsed > (
            best_delivered / best_elapsed if best_elapsed < float("inf") else 0.0
        ):
            best_elapsed = elapsed
            best_delivered = delivered
    return {
        "experiment": "E2E",
        "subscribers": n_subscribers,
        "items": n_items,
        "faults": fault_model is not None,
        "best_seconds": round(best_elapsed, 6),
        "items_per_sec": round(n_items / best_elapsed, 1),
        "deliveries_per_sec": round(best_delivered / best_elapsed, 1),
        "deliveries": best_delivered,
        "network_messages": network.stats.total_messages,
    }


def build_shard_workload(
    runtime: str,
    n_subscribers: int,
    shards: int,
    seed: int = 11,
    supervise: bool = True,
) -> tuple[P2PMSystem, list]:
    """One source peer feeding ``n_subscribers`` plans spread over ``shards``
    manager peers.

    The topology is identical for both runtimes -- ``shards`` manager peers,
    subscriptions round-robined across them, ``placement_mode="manager"`` so
    each pipeline runs whole at its manager -- and only the execution
    backend differs.  The shard assigner pins the source to shard 0 and
    manager ``m{j}`` to shard ``j % shards``, so under the sharded runtime
    every worker owns an equal slice of the plans and all cross-shard
    traffic is the source fan-out.
    """

    def pin(peer_id: str, n: int) -> int | None:
        if peer_id == "src":
            return 0
        if peer_id.startswith("m"):
            return int(peer_id[1:]) % n
        return None

    kwargs: dict = {"seed": seed, "placement_mode": "manager"}
    if runtime == "sharded":
        kwargs.update(
            runtime="sharded",
            shards=shards,
            shard_assigner=pin,
            supervise=supervise,
        )
    system = P2PMSystem(**kwargs)
    source = system.add_peer("src")
    source.get_or_create_alerter(CHAOS_FUNCTION)
    managers = [system.add_peer(f"m{j}") for j in range(shards)]
    per_manager: list[tuple[list[str], list[str]]] = [([], []) for _ in range(shards)]
    for k in range(n_subscribers):
        texts, ids = per_manager[k % shards]
        texts.append(
            f'for $x in {CHAOS_FUNCTION}(<p>src</p>) '
            f'where $x.kind = "chaos" and $x.n >= {k % 10} '
            "return <seen><src>{$x.source}</src><n>{$x.n}</n></seen>"
        )
        ids.append(f"b{k}")
    handles = []
    for manager, (texts, ids) in zip(managers, per_manager):
        handles.extend(manager.subscribe_many(texts, sub_ids=ids, reuse=False))
    system.run()
    return system, handles


def measure_shard(
    runtime: str,
    n_subscribers: int,
    shards: int,
    n_items: int,
    rounds: int,
    seed: int = 11,
    supervise: bool = True,
) -> dict:
    """Best-of-``rounds`` emit+deliver timing for one runtime backend.

    Deliveries are read from the per-subscription delivery valves -- the
    single-process runtime increments them in-process, the sharded runtime
    through its result harvest -- so both backends are counted by the same
    instrument.

    The ``sharded`` row runs with the supervisor on (the production
    default), so the baseline compare gates supervision overhead for free.
    ``supervise=False`` produces a ``sharded-raw`` row -- a label the
    baseline never carries, so the gate skips it -- whose only job is the
    ``supervision_overhead_*`` summary entries.
    """
    system, handles = build_shard_workload(
        runtime, n_subscribers, shards, seed, supervise=supervise
    )
    system.start_runtime()
    valves = [handle.task.valve for handle in handles]

    def delivered_total() -> int:
        return sum(valve.items_delivered for valve in valves)

    best_elapsed = float("inf")
    best_delivered = 0
    next_n = 10  # past every threshold, so each item passes all filters
    try:
        # one unmeasured epoch: pays the copy-on-write page faults the fork
        # workers owe on first touch of the plan graph (and warms caches for
        # the single-process runtime), so the timed rounds measure steady state
        system.drive_alerter("src", CHAOS_FUNCTION, "emit_numbered", next_n)
        system.run()
        next_n += 1
        for _ in range(rounds):
            before = delivered_total()
            start = time.perf_counter()
            for i in range(n_items):
                system.drive_alerter(
                    "src", CHAOS_FUNCTION, "emit_numbered", next_n + i
                )
            system.run()
            elapsed = time.perf_counter() - start
            next_n += n_items
            delivered = delivered_total() - before
            if delivered / elapsed > (
                best_delivered / best_elapsed if best_elapsed < float("inf") else 0.0
            ):
                best_elapsed = elapsed
                best_delivered = delivered
    finally:
        system.shutdown()
    return {
        "experiment": "SHARD",
        "subscribers": n_subscribers,
        "runtime": runtime if supervise else f"{runtime}-raw",
        "supervised": supervise and runtime == "sharded",
        "shards": shards if runtime == "sharded" else 0,
        "items": n_items,
        "best_seconds": round(best_elapsed, 6),
        "items_per_sec": round(n_items / best_elapsed, 1),
        "deliveries_per_sec": round(best_delivered / best_elapsed, 1),
        "deliveries": best_delivered,
    }


def build_pipeline_workload(
    n_subscribers: int, seed: int = 11
) -> tuple[P2PMSystem, object, list[int]]:
    """One peer, one alerter feed, ``n_subscribers`` deployed plan pipelines.

    Subscriptions share one restructure template (so the CSE table gets
    system-wide hits) while cycling through 10 distinct filter
    thresholds (so the compiled-plan cache sees both hits and misses);
    ``reuse=False`` keeps every subscription on its own plan -- the benchmark
    measures per-plan execution, which is exactly what compilation fuses.
    """
    system = P2PMSystem(seed=seed)
    peer = system.add_peer("bench")
    texts = [
        f'for $x in {CHAOS_FUNCTION}(<p>bench</p>) '
        f'where $x.kind = "chaos" and $x.n >= {k % 10} '
        "return <seen><src>{$x.source}</src><n>{$x.n}</n></seen>"
        for k in range(n_subscribers)
    ]
    handles = peer.subscribe_many(
        texts, sub_ids=[f"b{k}" for k in range(n_subscribers)], reuse=False
    )
    counters = [0] * n_subscribers

    def make_sink(index: int):
        def sink(item: object) -> None:
            counters[index] += 1

        return sink

    for index, handle in enumerate(handles):
        handle.on_result(make_sink(index))
    system.run()
    alerter = peer.alerter(CHAOS_FUNCTION)
    return system, alerter, counters


def measure_pipeline(
    n_subscribers: int, n_items: int, rounds: int, seed: int = 11
) -> dict:
    """Best-of-``rounds`` publish+deliver timing through deployed plans."""
    system, alerter, counters = build_pipeline_workload(n_subscribers, seed)
    best_elapsed = float("inf")
    best_delivered = 0
    next_n = 10  # past every threshold, so each item passes all filters
    for _ in range(rounds):
        before = sum(counters)
        start = time.perf_counter()
        for i in range(n_items):
            alerter.emit_numbered(next_n + i)
        system.run()
        elapsed = time.perf_counter() - start
        next_n += n_items
        delivered = sum(counters) - before
        if delivered / elapsed > (
            best_delivered / best_elapsed if best_elapsed < float("inf") else 0.0
        ):
            best_elapsed = elapsed
            best_delivered = delivered
    return {
        "experiment": "PIPELINE",
        "subscribers": n_subscribers,
        # part of _row_key: the committed baseline rows carry it
        "mode": "compiled",
        "items": n_items,
        "best_seconds": round(best_elapsed, 6),
        "items_per_sec": round(n_items / best_elapsed, 1),
        "deliveries_per_sec": round(best_delivered / best_elapsed, 1),
        "deliveries": best_delivered,
    }


def build_join_workload(
    n_subscribers: int, seed: int = 11
) -> tuple[P2PMSystem, object, list[int]]:
    """``n_subscribers`` self-join plans over one alerter feed.

    Each subscription joins the chaos feed with itself on the item number
    ($x.n = $y.n), so every emitted item probes a windowed JOIN whose build
    side just stored it.  ``reuse=False`` keeps each subscription on its own
    plan, as in the PIPELINE workload.
    """
    system = P2PMSystem(seed=seed)
    peer = system.add_peer("bench")
    texts = [
        f'for $x in {CHAOS_FUNCTION}(<p>bench</p>), '
        f'$y in {CHAOS_FUNCTION}(<p>bench</p>) '
        f'where $x.kind = "chaos" and $x.n >= {k % 10} and $x.n = $y.n '
        "return <pair><n>{$x.n}</n><m>{$y.n}</m></pair>"
        for k in range(n_subscribers)
    ]
    handles = peer.subscribe_many(
        texts, sub_ids=[f"j{k}" for k in range(n_subscribers)], reuse=False
    )
    counters = [0] * n_subscribers

    def make_sink(index: int):
        def sink(item: object) -> None:
            counters[index] += 1

        return sink

    for index, handle in enumerate(handles):
        handle.on_result(make_sink(index))
    system.run()
    alerter = peer.alerter(CHAOS_FUNCTION)
    return system, alerter, counters


def measure_join(
    n_subscribers: int, n_items: int, rounds: int, seed: int = 11
) -> dict:
    """Best-of-``rounds`` publish+deliver timing through JOIN plans."""
    system, alerter, counters = build_join_workload(n_subscribers, seed)
    best_elapsed = float("inf")
    best_delivered = 0
    next_n = 10  # past every threshold, so each item passes all filters
    for _ in range(rounds):
        before = sum(counters)
        start = time.perf_counter()
        for i in range(n_items):
            alerter.emit_numbered(next_n + i)
        system.run()
        elapsed = time.perf_counter() - start
        next_n += n_items
        delivered = sum(counters) - before
        if delivered / elapsed > (
            best_delivered / best_elapsed if best_elapsed < float("inf") else 0.0
        ):
            best_elapsed = elapsed
            best_delivered = delivered
    return {
        "experiment": "PIPELINE-JOIN",
        "subscribers": n_subscribers,
        # part of _row_key: the committed baseline rows carry it
        "mode": "compiled",
        "items": n_items,
        "best_seconds": round(best_elapsed, 6),
        "items_per_sec": round(n_items / best_elapsed, 1),
        "deliveries_per_sec": round(best_delivered / best_elapsed, 1),
        "deliveries": best_delivered,
    }


#: Worker-process count for every sharded SHARD row (kept constant across
#: subscriber sizes so the 1k -> 10k scaling comparison is apples-to-apples).
#: Sized so the fleet is deliberately *under*-utilised at 1k subscribers:
#: the per-wake fixed cost (pipe turn + cache refill) dominates there and
#: amortises away at 10k, which is what makes the sharded deliveries/s curve
#: rise with subscriber count while the single-process curve stays flat.
SHARD_WORKERS = 40


def run(quick: bool = False, only: str | None = None) -> dict:
    if quick:
        matrix = [(100, 100, 2), (1000, 25, 2)]
        pipeline_matrix = [(1000, 25, 2)]
        join_matrix = [(300, 25, 2)]
        # same items-per-epoch as the full 1k row: the sharded rate is
        # sensitive to per-epoch amortisation, and the quick row gates
        # against the full baseline
        shard_matrix = [(1000, 10, 2)]
    else:
        matrix = [(100, 200, 3), (1000, 50, 3), (10000, 10, 1)]
        pipeline_matrix = [(1000, 50, 3), (10000, 10, 1)]
        join_matrix = [(300, 50, 3), (1000, 10, 2)]
        shard_matrix = [(1000, 10, 3), (10000, 10, 2)]
    rows: list[dict] = []
    if only in (None, "e2e"):
        for n_subscribers, n_items, rounds in matrix:
            for fault_model in (None, BENCH_FAULTS):
                rows.append(measure(n_subscribers, n_items, rounds, fault_model))
    if only in (None, "pipeline"):
        for n_subscribers, n_items, rounds in pipeline_matrix:
            rows.append(measure_pipeline(n_subscribers, n_items, rounds))
        for n_subscribers, n_items, rounds in join_matrix:
            rows.append(measure_join(n_subscribers, n_items, rounds))
    if only in (None, "shard"):
        for n_subscribers, n_items, rounds in shard_matrix:
            for runtime, supervise in (
                ("single", True),
                ("sharded", True),
                ("sharded", False),
            ):
                rows.append(
                    measure_shard(
                        runtime,
                        n_subscribers,
                        SHARD_WORKERS,
                        n_items,
                        rounds,
                        supervise=supervise,
                    )
                )
    summary: dict = {"suite": "e2e", "quick": quick, "throughput": rows}
    baseline = PRE_PR_BASELINE.get("deliveries_per_sec_at_1k_subscribers_perfect")
    row_1k = next(
        (r for r in rows if r["subscribers"] == 1000 and row_is_fanout(r) and not r["faults"]),
        None,
    )
    if baseline and row_1k is not None:
        summary["pre_pr_baseline"] = PRE_PR_BASELINE
        summary["speedup_vs_pre_pr_1k"] = round(
            row_1k["deliveries_per_sec"] / baseline, 2
        )
    # the sharded runtime's reason to exist: deliveries/s must *rise* with
    # subscriber count (fixed epoch overhead amortised, per-worker working
    # set bounded) while the single-process rate falls
    for runtime in ("single", "sharded"):
        by_size = {
            row["subscribers"]: row["deliveries_per_sec"]
            for row in rows
            if row.get("experiment") == "SHARD" and row["runtime"] == runtime
        }
        if 1000 in by_size and 10000 in by_size:
            summary[f"shard_scaling_{runtime}"] = round(
                by_size[10000] / by_size[1000], 2
            )
    # what the per-epoch deadline guard costs: fraction of the raw
    # (unsupervised) sharded rate lost when the supervisor bounds every
    # worker turn -- kept near zero by polling only while a turn is open
    for n_subscribers, _items, _rounds in shard_matrix:
        rates = {
            row["runtime"]: row["deliveries_per_sec"]
            for row in rows
            if row.get("experiment") == "SHARD"
            and row["subscribers"] == n_subscribers
            and row["runtime"] in ("sharded", "sharded-raw")
        }
        if "sharded" in rates and "sharded-raw" in rates and rates["sharded-raw"]:
            summary[f"supervision_overhead_{n_subscribers // 1000}k"] = round(
                1.0 - rates["sharded"] / rates["sharded-raw"], 3
            )
    return summary


def row_is_fanout(row: dict) -> bool:
    return row.get("experiment", "E2E") == "E2E"


def _row_key(row: dict) -> tuple:
    """Fan-out rows match on (subscribers, faults); pipeline rows on
    (experiment, subscribers, "compiled"); shard rows on (subscribers, runtime)."""
    if row_is_fanout(row):
        return ("E2E", row["subscribers"], row["faults"])
    if row.get("experiment") == "SHARD":
        return ("SHARD", row["subscribers"], row["runtime"])
    return (row.get("experiment", "PIPELINE"), row["subscribers"], row["mode"])


def compare_to_baseline(summary: dict, baseline: dict, tolerance: float) -> list[str]:
    """Rows matched by :func:`_row_key`; regression when deliveries/sec
    falls more than ``tolerance`` below the baseline row."""
    problems: list[str] = []
    matched = 0
    baseline_rows = {
        _row_key(row): row for row in baseline.get("throughput", [])
    }
    for row in summary.get("throughput", []):
        reference = baseline_rows.get(_row_key(row))
        if reference is None:
            continue
        matched += 1
        floor = reference["deliveries_per_sec"] * (1.0 - tolerance)
        if row["deliveries_per_sec"] < floor:
            if row_is_fanout(row):
                label = f"subs={row['subscribers']},faults={row['faults']}"
            elif row.get("experiment") == "SHARD":
                label = f"subs={row['subscribers']},runtime={row['runtime']}"
            else:
                label = f"subs={row['subscribers']},mode={row['mode']}"
            problems.append(
                f"e2e[{label}]: "
                f"{row['deliveries_per_sec']:.1f} deliveries/s is below "
                f"{floor:.1f} (baseline {reference['deliveries_per_sec']:.1f} "
                f"- {tolerance:.0%} tolerance)"
            )
    if matched == 0:
        problems.append(
            "no e2e rows matched the baseline: the regression gate compared "
            "nothing (size mismatch between run and baseline?)"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--only",
        choices=("e2e", "pipeline", "shard"),
        default=None,
        help="run a single experiment family instead of the full suite",
    )
    parser.add_argument(
        "--output",
        "--out",
        dest="output",
        default=str(REPO_ROOT / "BENCH_e2e.json"),
        help="path of the JSON summary (default: repo-root BENCH_e2e.json)",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="baseline summary to gate against (e.g. BENCH_e2e.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.4,
        help="allowed fractional regression vs the baseline (default 0.4; "
        "macro timings are noisier than the filter micro-bench)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(Path(args.compare).read_text()) if args.compare else None
    summary = run(quick=args.quick, only=args.only)
    summary["generated_unix"] = round(time.time(), 1)
    out_path = Path(args.output)
    out_path.write_text(json.dumps(summary, indent=2) + "\n")
    for row in summary["throughput"]:
        if row_is_fanout(row):
            label = "faulty " if row["faults"] else "perfect"
            prefix = "E2E"
        elif row.get("experiment") == "SHARD":
            label = f"{row['runtime']:<11}"
            prefix = "SHRD"
        else:
            label = f"{row['mode']:<11}"
            prefix = "JOIN" if row.get("experiment") == "PIPELINE-JOIN" else "PIPE"
        print(
            f"{prefix} {label} subs={row['subscribers']:>6}  "
            f"{row['items_per_sec']:>9.1f} items/s  "
            f"{row['deliveries_per_sec']:>11.1f} deliveries/s"
        )
    if "speedup_vs_pre_pr_1k" in summary:
        print(f"speedup vs pre-PR baseline at 1k subscribers: "
              f"{summary['speedup_vs_pre_pr_1k']}x")
    for key in (
        "shard_scaling_single",
        "shard_scaling_sharded",
    ):
        if key in summary:
            print(f"{key.replace('_', ' ')}: {summary[key]}x")
    for key in ("supervision_overhead_1k", "supervision_overhead_10k"):
        if key in summary:
            print(f"{key.replace('_', ' ')}: {summary[key]:.1%}")
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
