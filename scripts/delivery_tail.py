#!/usr/bin/env python3
"""Where the calls of one delivery go, and what is left for the cycle collector.

    python3 scripts/delivery_tail.py functions fanout [--top 15] [--phase subscribe]
        one counted phase of ``perf/harness.py`` (seed 1, ``cProfile`` exactly
        as the harness takes it), per function: calls per delivery (``burst``,
        the default; ``single``: the single alerts of the counted round, which
        the harness times but does not count), per subscription
        (``subscribe``) or per cancel
    python3 scripts/delivery_tail.py frames fanout
        the counted burst again with the network's trace on: how many items
        each ``channel.item`` / ``channel.items`` message carried
    python3 scripts/delivery_tail.py collector fanout
        one measured burst with the collector on (collections per generation)
        and one with it off (unreachable objects a ``gc.collect()`` then finds)
    python3 scripts/delivery_tail.py stages fanout [--phase cancel]
        the counted subscribe (or cancel) phase again, under ``sys.setprofile``:
        inclusive calls per subscription (per cancel) of each control-plane
        stage (``STAGES``)

These are the tables of "The delivery tail", "The DHT write path", "A twin
subscription costs its delta" and "A burst stays a burst" in
``docs/PERFORMANCE.md``.  The benchmark
itself (``perf/``) is only imported, never changed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEED = 1
#: counted phase -> the metric of ``harness._counted_cycle`` that divides it
PHASES = {"burst": "per_delivery", "single": "per_delivery", "subscribe": "per_sub", "cancel": "per_cancel"}


def functions(workload, top: int, phase_name: str) -> None:
    from perf import harness

    calls: Counter = Counter()
    single_deliveries = 0
    plain_enter, plain_exit = harness._Phase.__enter__, harness._Phase.__exit__
    plain_round = harness.Cycle.round

    def counting_enter(phase) -> None:
        plain_enter(phase)
        if phase.clock.count_calls and phase.name == phase_name and phase.profile is None:
            phase.profile = cProfile.Profile(subcalls=False)  # as the harness, for a phase it only times
            phase.profile.enable()

    def counting_round(cycle, burst, singles) -> None:
        nonlocal single_deliveries
        before = sum(cycle.counts)
        plain_round(cycle, burst, singles)
        single_deliveries += sum(cycle.counts) - before - cycle.deliveries[-1]

    def counting_exit(phase, *exc_info) -> None:
        if phase.profile is not None and phase.name == phase_name:
            phase.profile.disable()
            for entry in phase.profile.getstats():
                code = entry.code
                name = code if isinstance(code, str) else (
                    f"{code.co_filename.rpartition('/repro/')[2]}:{code.co_name}"
                )
                calls[name] += entry.callcount
        plain_exit(phase, *exc_info)

    harness._Phase.__enter__, harness._Phase.__exit__ = counting_enter, counting_exit
    harness.Cycle.round = counting_round
    sizes = workload.sizes(1.0).counted(1.0)
    counted = harness._counted_cycle(workload, SEED, sizes, harness.Tally())
    if phase_name == "single":
        ops = single_deliveries  # of the counted round's single alerts only
        per_op = sum(calls.values()) / ops
    else:
        per_op = counted[PHASES[phase_name]]
        ops = sum(calls.values()) / per_op
    print(f"{workload.name}: pycalls_{PHASES[phase_name]} {per_op:.3f} ({phase_name}), {ops:.0f} operations")
    for name, count in calls.most_common(top):
        print(f"{count / ops:8.3f}  {name}")


#: KadoP's routed lookups, wherever they happen
ROUTING = ("  of which KadoP routing", "dht/chord.py", ("_route", "lookup"))

#: phase -> (label, file under ``src/repro``, functions): a stage is
#: everything called from the outermost activation of one of them (itself
#: included).  Stages may nest -- the indented ones always do; the reuse key
#: was derived inside ``ReuseEngine.apply`` until the plan template took it over
STAGES = {"subscribe": (
    ("parse", "p2pml/parser.py", ("parse_subscription",)),
    ("compile", "p2pml/compiler.py", ("compile_subscription",)),
    ("optimise", "monitor/optimizer.py", ("optimize_plan",)),
    ("reuse key", "monitor/reuse.py", ("reuse_cache_key",)),
    ("instantiate the template", "p2pml/compiler.py", ("instantiate",)),
    ("reuse", "monitor/reuse.py", ("apply",)),
    ("  of which replay", "monitor/reuse.py", ("_replay",)),
    ("  of which provider choice", "monitor/reuse.py", ("_select_provider",)),
    ("place", "monitor/placement.py", ("place_plan",)),
    ("deploy", "monitor/deployment.py", ("deploy",)),
    ("  of which stream-definition publish", "monitor/stream_db.py", ("publish_stream", "publish_replica")),
    ROUTING,
), "cancel": (
    ("cancel", "monitor/handle.py", ("cancel",)),
    ("  of which stream-definition retract", "monitor/stream_db.py", ("retract",)),
    ROUTING,
)}


def stages(workload, phase_name: str) -> None:
    from perf import harness

    table = STAGES[phase_name]
    label_of = {(file, name): label for label, file, names in table for name in names}
    inclusive: Counter = Counter()
    depth: Counter = Counter()
    active: list[str] = []
    total = outside = 0

    def tracer(frame, event, argument) -> None:
        nonlocal total, outside
        label = None
        if event == "call" or event == "return":
            code = frame.f_code
            label = label_of.get((code.co_filename.rpartition("/repro/")[2], code.co_name))
        if event == "call" and label is not None:
            depth[label] += 1
            if depth[label] == 1:
                active.append(label)  # before counting: a stage includes its own call
        if event == "call" or event == "c_call":
            total += 1
            outside += not active
            for open_stage in active:
                inclusive[open_stage] += 1
        elif event == "return" and label is not None:
            depth[label] -= 1
            if depth[label] == 0:
                active.remove(label)

    plain_enter, plain_exit = harness._Phase.__enter__, harness._Phase.__exit__

    def traced_enter(phase) -> None:
        if not (phase.clock.count_calls and phase.name == phase_name):
            return plain_enter(phase)
        phase.clock.count_calls = False  # one profiler at a time: ours, for this phase
        plain_enter(phase)
        sys.setprofile(tracer)

    def traced_exit(phase, *exc_info) -> None:
        if phase.name == phase_name and sys.getprofile() is tracer:
            sys.setprofile(None)
            phase.clock.count_calls = True
            phase.clock.calls[phase.name] = Counter({"all": total})
        plain_exit(phase, *exc_info)

    harness._Phase.__enter__, harness._Phase.__exit__ = traced_enter, traced_exit
    sizes = workload.sizes(1.0).counted(1.0)
    counted = harness._counted_cycle(workload, SEED, sizes, harness.Tally())
    metric = PHASES[phase_name]
    ops = total / counted[metric]
    print(f"{workload.name}: pycalls_{metric} {counted[metric]:.1f} over {ops:.0f} operations ({phase_name})")
    for label, _, _ in table:
        print(f"{inclusive[label] / ops:8.1f}  {label}")
    print(f"{outside / ops:8.1f}  outside every stage (ids, records, handles, the harness's own frames)")


def frames(workload) -> None:
    from perf import harness
    from repro.net.channel import MSG_ITEM, MSG_ITEMS

    plain_round = harness.Cycle.round
    sizes_seen: Counter = Counter()
    deliveries = 0

    def traced_round(cycle, burst, singles) -> None:
        nonlocal deliveries
        network = cycle.system.network
        plain_burst = cycle._publish_burst

        def traced_burst(prepared) -> None:
            network.trace_enabled = True
            try:
                plain_burst(prepared)
            finally:
                network.trace_enabled = False

        cycle._publish_burst = traced_burst
        plain_round(cycle, burst, singles)
        deliveries = cycle.deliveries[-1]
        for message in network.trace:
            if message.kind in (MSG_ITEM, MSG_ITEMS):
                sizes_seen[len(message.payload.children)] += 1

    harness.Cycle.round = traced_round
    sizes = workload.sizes(1.0).counted(1.0)
    harness._counted_cycle(workload, SEED, sizes, harness.Tally())
    messages = sum(sizes_seen.values())
    items = sum(size * count for size, count in sizes_seen.items())
    print(f"{workload.name}: {messages} item messages carrying {items} items for {deliveries} deliveries")
    for size, count in sorted(sizes_seen.items()):
        print(f"{count:8d}  messages x {size} item{'s' if size > 1 else ''}")


def collector(workload) -> None:
    from perf import harness

    sizes = workload.sizes(1.0)
    plan = workload.deal(harness._plan_rng(workload, SEED, 0), sizes)
    cycle = harness.Cycle(workload, plan, harness.PhaseClock(), harness.Tally())
    cycle.subscribe()
    cycle.cancel(plan.cancels)
    cycle.warm_up(check_payloads=False)

    def burst(index: int) -> int:
        before = sum(cycle.counts)
        cycle._publish_burst(cycle.rig.prepare(plan.bursts[index]))
        return sum(cycle.counts) - before

    gc.collect()
    before = [generation["collections"] for generation in gc.get_stats()]
    deliveries = burst(0)
    ran = [generation["collections"] - was for generation, was in zip(gc.get_stats(), before)]
    print(f"{workload.name}: {deliveries} deliveries, collector on: collections per generation {ran}")
    gc.collect()
    gc.disable()
    try:
        deliveries = burst(1)
        unreachable = gc.collect()
    finally:
        gc.enable()
    print(f"{workload.name}: {deliveries} deliveries, collector off: {unreachable} unreachable objects afterwards")
    cycle.close()


def main() -> int:
    for entry in (str(REPO), str(REPO / "src")):
        sys.path.insert(0, entry)
    from perf.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("functions", "collector", "stages", "frames"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--phase", choices=sorted(PHASES), help="functions: burst (default); stages: subscribe (default) or cancel")
    args = parser.parse_args()
    if args.what == "functions":
        functions(WORKLOADS[args.workload], args.top, args.phase or "burst")
    elif args.what == "stages":
        phase = args.phase or "subscribe"
        if phase not in STAGES:
            parser.error(f"stages splits the {' / '.join(STAGES)} phase, not {phase!r}")
        stages(WORKLOADS[args.workload], phase)
    elif args.what == "frames":
        frames(WORKLOADS[args.workload])
    else:
        collector(WORKLOADS[args.workload])
    return 0


if __name__ == "__main__":
    if "PYTHONHASHSEED" not in os.environ:
        # as perf/run.py: one seed means one execution
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    raise SystemExit(main())
