"""One cycle, the same for every workload, and the run built from cycles.

A cycle is: build a fresh system -> ``subscribe_many`` every subscription ->
``run()`` -> cancel some in seeded order -> ``run()`` -> ``start_runtime()``
-> one unmeasured warm-up burst (up to here: one ``setup_s`` sample) -> R
rounds, each one burst timed from first publish to idle followed by K single
alerts each timed publish -> idle -> delivered counts compared with the
oracle -> system dropped, ``gc.collect()``.  It is a closed loop with one
driver thread: the next alert is published only when the system is idle.

A run repeats timed cycles while the next one still fits in ``--seconds``
and reports the median of every sample taken, then does one *counted* cycle
under ``cProfile`` whose call counts -- not times -- are the exact metrics.
"""

from __future__ import annotations

import cProfile
import gc
import random
import resource
import statistics
import time
from collections import Counter

from repro.monitor import SubmitManyError
from repro.xmlmodel import to_xml

from perf.layers import CONTROL, COUNTED_LAYERS, DELIVER, PLANE_OF_PHASE, PLANE_OF_SPAN, SPANS, layer_of
from perf.oracle import Expectation
from perf.trace import Tracer
from perf.workloads import Workload

#: phases of the counted cycle whose calls are counted
COUNTED_PHASES = ("subscribe", "cancel", "burst")


class Incorrect(Exception):
    """The system delivered something else than the oracle expects."""


class Tally:
    """Operations attempted and failed over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None

    def fail(self, count: int, error: BaseException) -> None:
        self.failed += count
        if self.first_error is None:
            self.first_error = f"{type(error).__name__}: {error}"[:300]


class PhaseClock:
    """Times the phases of one cycle; can also count calls or record spans in them."""

    def __init__(self, tracer: Tracer | None = None, count_calls: bool = False) -> None:
        self.tracer = tracer
        self.count_calls = count_calls
        self.walls: dict[str, list[float]] = {}
        self.cpus: dict[str, list[float]] = {}
        #: phase -> {layer: calls}, summed over the phases of that name
        self.calls: dict[str, Counter] = {}

    def phase(self, name: str, ops: int = 0) -> "_Phase":
        return _Phase(self, name, ops)


class _Phase:
    __slots__ = ("clock", "name", "ops", "profile", "cpu0", "t0")

    def __init__(self, clock: PhaseClock, name: str, ops: int) -> None:
        self.clock = clock
        self.name = name
        self.ops = ops
        self.profile = None

    def __enter__(self) -> None:
        clock = self.clock
        if clock.tracer is not None:
            clock.tracer.begin()
        if clock.count_calls and self.name in COUNTED_PHASES:
            self.profile = cProfile.Profile(subcalls=False)
            self.profile.enable()
        self.cpu0 = time.process_time()
        self.t0 = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        wall = time.perf_counter() - self.t0
        cpu = time.process_time() - self.cpu0
        clock = self.clock
        if self.profile is not None:
            self.profile.disable()
            by_layer = clock.calls.setdefault(self.name, Counter())
            for entry in self.profile.getstats():
                by_layer[layer_of(entry.code)] += entry.callcount
        if clock.tracer is not None:
            clock.tracer.end(self.name, wall, self.ops)
        clock.walls.setdefault(self.name, []).append(wall)
        clock.cpus.setdefault(self.name, []).append(cpu)


class Cycle:
    """The live state and the samples of one cycle."""

    def __init__(self, workload: Workload, plan, clock: PhaseClock, tally: Tally) -> None:
        self.workload = workload
        self.plan = plan
        self.clock = clock
        self.tally = tally
        self.started = time.perf_counter()
        self.rig = workload.rig(plan)
        self.system = self.rig.system
        self.handles: list = [None] * len(plan.subs)
        self.counts = [0] * len(plan.subs)
        #: subscriptions whose cancel raised: their state is unknown
        self.unchecked: set[int] = set()
        self.setup_s = 0.0
        self.deliveries: list[int] = []  # per burst round
        self.expect: Expectation | None = None

    # -- set-up ----------------------------------------------------------------

    def _sink(self, index: int):
        counts = self.counts

        def sink(item) -> None:
            counts[index] += 1

        return sink

    def subscribe(self) -> None:
        plan, tally = self.plan, self.tally
        with self.clock.phase("subscribe", ops=len(plan.subs)):
            for peer_id, indices in plan.batches:
                tally.attempted += len(indices)
                try:
                    handles = self.system.peer(peer_id).subscribe_many(
                        [plan.texts[i] for i in indices],
                        sub_ids=[f"s{i}" for i in indices],
                        reuse=self.workload.reuse,
                    )
                except SubmitManyError as error:
                    handles = error.handles
                    tally.fail(len(indices) - len(handles), error)
                for index, handle in zip(indices, handles):
                    self.handles[index] = handle
                    handle.on_result(self._sink(index))
            self.system.run()

    def cancel(self, indices: list[int]) -> None:
        self.tally.attempted += len(indices)
        with self.clock.phase("cancel"):
            for index in indices:
                handle = self.handles[index]
                if handle is None:
                    continue
                try:
                    handle.cancel()
                except Exception as error:  # noqa: BLE001 - counted in `failed`, the run goes on
                    self.tally.fail(1, error)
                    self.unchecked.add(index)
            self.system.run()

    def warm_up(self, check_payloads: bool) -> None:
        """Start the runtime and push one unmeasured burst through every path."""
        plan = self.plan
        self.system.start_runtime()
        self.rig.attach()
        live = [
            i for i, handle in enumerate(self.handles) if handle is not None and i not in plan.cancelled
        ]
        self.expect = Expectation(plan.subs, live)
        captured: dict[int, list[str]] = {}
        taps = []
        if check_payloads:
            for index in live:
                bucket = captured.setdefault(index, [])
                taps.append(self.handles[index].on_result(lambda item, b=bucket: b.append(to_xml(item))))
        self._publish_burst(self.rig.prepare(plan.warmup))
        self.setup_s = time.perf_counter() - self.started
        self.expect.publish(plan.warmup)
        for remove in taps:
            remove()
        problems = self.rig.problems(self.handles, plan) + self._count_problems()
        if check_payloads:
            problems += self.expect.payload_mismatches(plan.warmup, captured)
        self._require(problems)

    # -- measured rounds ---------------------------------------------------------

    def _publish_burst(self, prepared: list) -> None:
        self.tally.attempted += len(prepared)
        try:
            self.rig.burst(prepared)
            self.system.run()
        except Exception as error:  # noqa: BLE001 - counted in `failed`, the run goes on
            self.tally.fail(len(prepared), error)
            self.unchecked.update(range(len(self.counts)))

    def round(self, burst: list, singles: list) -> None:
        """One burst, timed from first publish to idle, then ``len(singles)``
        single alerts, each timed the same way; then the oracle check."""
        before = sum(self.counts)
        prepared = self.rig.prepare(burst)
        with self.clock.phase("burst", ops=len(burst)):
            self._publish_burst(prepared)
        self.deliveries.append(sum(self.counts) - before)
        self.tally.attempted += len(singles)
        run = self.system.run
        publish = self.rig.single
        for alert in self.rig.prepare(singles):
            with self.clock.phase("single", ops=1):
                try:
                    publish(alert)
                    run()
                except Exception as error:  # noqa: BLE001 - counted in `failed`
                    self.tally.fail(1, error)
                    self.unchecked.update(range(len(self.counts)))
        self.expect.publish(burst)
        self.expect.publish(singles)
        self._require(self._count_problems())

    def _count_problems(self) -> list[str]:
        return self.expect.mismatches(self.counts, frozenset(self.unchecked))

    def _require(self, problems: list[str]) -> None:
        if problems:
            more = f" (and {len(problems) - 3} more)" if len(problems) > 3 else ""
            raise Incorrect(f"{self.workload.name}: " + "; ".join(problems[:3]) + more)

    def close(self) -> None:
        self.system.shutdown()


def run_cycle(workload: Workload, plan, clock: PhaseClock, tally: Tally,
              check_payloads: bool = False) -> Cycle:
    """Set-up and every round of ``plan``; the caller closes and drops the cycle."""
    cycle = Cycle(workload, plan, clock, tally)
    cycle.subscribe()
    cycle.cancel(plan.cancels)
    cycle.warm_up(check_payloads)
    for burst, singles in zip(plan.bursts, plan.singles):
        cycle.round(burst, singles)
    return cycle


# -- counters of the counted cycle ---------------------------------------------------


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _data_plane_snapshot(system) -> dict[str, float]:
    compile_ = system.compile_stats.snapshot()["stage_invocations"]
    cse = system.materialized.snapshot()
    network = system.network.stats.snapshot()
    return {
        "cse_hits": cse["hits"],
        "cse_misses": cse["misses"],
        "item_stages": compile_["item"],
        "batch_items": compile_["batch_items"],
        "messages": network["messages"],
        "bytes": network["bytes"],
    }


def control_counters(cycle: Cycle) -> dict[str, float]:
    """Counters of the subscribe phase, read before anything is cancelled."""
    system = cycle.system
    reports = [h.reuse_report for h in cycle.handles if h is not None and h.reuse_report is not None]
    plan_cache = system.compile_cache.snapshot()
    fallbacks = system.compile_stats.snapshot()["fallbacks"]
    return {
        "compile.plan_cache_hit_rate": _rate(plan_cache["hits"], plan_cache["misses"]),
        "compile.fallbacks": sum(n for reasons in fallbacks.values() for n in reasons.values()),
        "monitor.reuse.hit_rate": _rate(
            sum(r.nodes_reused for r in reports),
            sum(r.nodes_considered - r.nodes_reused for r in reports),
        ),
        "monitor.reuse.signature_cache_hit_rate": _rate(system.reuse_cache.hits, system.reuse_cache.misses),
        "monitor.operators_deployed": sum(h.operator_count for h in cycle.handles if h is not None),
        "dht.kadop.query_cache_hit_rate": _rate(system.kadop.query_cache_hits, system.kadop.query_cache_misses),
    }


def deliver_counters(before: dict, after: dict, deliveries: int, alerts: int) -> dict[str, float]:
    delta = {key: after[key] - before[key] for key in after}
    per_delivery = 1.0 / deliveries if deliveries else 0.0
    return {
        "compile.cse_hit_rate": _rate(delta["cse_hits"], delta["cse_misses"]),
        "compile.batch_share": _rate(delta["batch_items"], delta["item_stages"]),
        "filtering.deliveries_per_alert": deliveries / alerts,
        "net.simnet.messages_per_delivery": delta["messages"] * per_delivery,
        "net.simnet.bytes_per_delivery": delta["bytes"] * per_delivery,
    }


# -- the run ----------------------------------------------------------------------------


def _plan_rng(workload: Workload, seed: int, label) -> random.Random:
    # str seeds are hashed with SHA-512: the same inputs in every process
    return random.Random(f"{workload.name}/{seed}/{label}")


def _summary(values: list[float]) -> dict:
    """Count, extremes, quartiles and mean of one kind of sample of a run."""
    first, median, third = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "min": min(values), "p25": first, "p50": median, "p75": third,
            "max": max(values), "mean": statistics.fmean(values)}


def _burst_rates(cycle: Cycle, clock: PhaseClock) -> list[float]:
    return [deliveries / wall for deliveries, wall in zip(cycle.deliveries, clock.walls["burst"])]


class Samples:
    """Every timing sample of the untraced cycles of a run.

    The headline of each kind is its *fastest* sample, not its median: the
    host's disturbance is one-sided (neighbours only ever slow a sample
    down) and comes in stretches of seconds to minutes, so the fastest of
    the 24+ samples a run spreads over 30 s is the one taken on an
    undisturbed machine.  Measured here over ten runs while the host was
    disturbed, medians spread 0.27-0.51 and fastest samples 0.06-0.15 (see
    perf/README.md).  The quartiles of every kind are in the detail line.
    """

    def __init__(self) -> None:
        self.setup_s: list[float] = []  # per cycle
        self.rates: list[float] = []  # deliveries/s, per burst round
        self.round_latency_s: list[float] = []  # median single-alert latency, per round
        self.latency_s: list[float] = []  # every single alert
        self.subscribe_s: list[float] = []
        self.cancel_s: list[float] = []
        self.cpu_us: list[float] = []  # CPU per delivery, per burst round

    def add(self, cycle: Cycle, clock: PhaseClock, singles: int) -> None:
        self.setup_s.append(cycle.setup_s)
        self.rates += _burst_rates(cycle, clock)
        latencies = clock.walls["single"]
        self.latency_s += latencies
        # every round publishes the same mix of single alerts: the median of
        # a round is the latency of the median alert
        self.round_latency_s += [
            statistics.median(latencies[i:i + singles]) for i in range(0, len(latencies), singles)
        ]
        self.subscribe_s += clock.walls["subscribe"]
        self.cancel_s += clock.walls["cancel"]
        self.cpu_us += [1e6 * cpu / d for d, cpu in zip(cycle.deliveries, clock.cpus["burst"]) if d]

    def summaries(self) -> dict:
        return {kind: _summary(values) for kind, values in vars(self).items()}


def measure(workload: Workload, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run ``workload`` for ``seconds`` and return metrics, tally and detail.

    With ``trace`` every other timed cycle runs under the span tracer (its
    samples go to the per-layer numbers only) and the result carries the
    per-layer metrics instead of the end-to-end ones.
    """
    started = time.perf_counter()
    sizes = workload.sizes(scale)
    tally = Tally()
    tracer = Tracer() if trace else None
    samples = Samples()
    traced_rates: list[float] = []
    cancelled = 0
    longest = 0.0
    index = 0
    while True:
        cycle_started = time.perf_counter()
        tracing = trace and index % 2 == 1
        plan = workload.deal(_plan_rng(workload, seed, index), sizes)
        cancelled = len(plan.cancels)
        if tracing:
            tracer.install(SPANS)
        try:
            clock = PhaseClock(tracer if tracing else None)
            cycle = run_cycle(workload, plan, clock, tally, check_payloads=index == 0)
            cycle.close()
        finally:
            if tracing:
                tracer.uninstall()
        if tracing:
            traced_rates += _burst_rates(cycle, clock)
        else:
            samples.add(cycle, clock, sizes.singles)
        del cycle, clock, plan
        gc.collect()
        index += 1
        longest = max(longest, time.perf_counter() - cycle_started)
        if trace and index < 2:
            continue
        if time.perf_counter() - started + 1.1 * longest > seconds:
            break

    counted = _counted_cycle(workload, seed, sizes.counted(scale), tally)
    end_to_end = {
        "setup_s": min(samples.setup_s),
        "deliveries_per_s": max(samples.rates),
        "alert_latency_ms_p50": 1e3 * min(samples.round_latency_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pycalls_per_delivery": counted["per_delivery"],
        "pycalls_per_sub": counted["per_sub"],
        "pycalls_per_cancel": counted["per_cancel"],
    }
    per_layer = None
    if trace:
        per_layer = _per_layer(tracer, samples, traced_rates, counted, sizes.subs, cancelled)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "sizes": {"subs": sizes.subs, "cancels": cancelled, "rounds": sizes.rounds,
                  "burst": sizes.burst, "singles": sizes.singles},
        "cycles": index,
        "burst_rounds": len(samples.rates) + len(traced_rates),
        "single_alerts": len(samples.latency_s),
        "deliveries_per_alert": counted["counters"]["filtering.deliveries_per_alert"],
        "counted_calls": counted["calls"],
        "first_error": tally.first_error,
        "elapsed_s": round(time.perf_counter() - started, 3),
        "samples": samples.summaries(),
    }
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "detail": detail,
        "tracer": tracer,
    }


def _counted_cycle(workload: Workload, seed: int, sizes, tally: Tally) -> dict:
    """The same cycle, one round, under ``cProfile``: exact call counts per
    phase and layer, and the counters read off the system's own statistics."""
    plan = workload.deal(_plan_rng(workload, seed, "counted"), sizes)
    clock = PhaseClock(count_calls=True)
    cycle = Cycle(workload, plan, clock, tally)
    cycle.subscribe()
    counters = control_counters(cycle)
    cycle.cancel(plan.cancels)
    cycle.warm_up(check_payloads=False)
    before = _data_plane_snapshot(cycle.system)
    delivered_before = sum(cycle.counts)
    cycle.round(plan.bursts[0], plan.singles[0])
    counters.update(
        deliver_counters(
            before,
            _data_plane_snapshot(cycle.system),
            sum(cycle.counts) - delivered_before,
            len(plan.bursts[0]) + len(plan.singles[0]),
        )
    )
    # a cancel can only tear down what the ledger still knows: cancelling the
    # rest must leave it empty
    cycle.clock = PhaseClock()
    cycle.cancel([i for i in range(len(plan.subs)) if i not in plan.cancelled])
    counters["monitor.ledger_keys_after_cancel_all"] = len(cycle.system.resources)
    cycle.close()
    calls = {phase: dict(sorted(by_layer.items())) for phase, by_layer in clock.calls.items()}
    deliveries = cycle.deliveries[0]
    result = {
        "per_delivery": sum(clock.calls["burst"].values()) / deliveries,
        "per_sub": sum(clock.calls["subscribe"].values()) / len(plan.subs),
        "per_cancel": sum(clock.calls["cancel"].values()) / len(plan.cancels),
        "counters": counters,
        "calls": calls,
        "by_layer": {
            DELIVER: {layer: n / deliveries for layer, n in clock.calls["burst"].items()},
            CONTROL: {layer: n / len(plan.subs) for layer, n in clock.calls["subscribe"].items()},
        },
    }
    del cycle
    gc.collect()
    return result


def _per_layer(tracer: Tracer, samples: Samples, traced_rates: list[float], counted: dict,
               subs: int, cancelled: int) -> dict:
    """Every per-layer metric, by the names of ``perf/metrics.py``."""
    metrics: dict[str, float] = {}
    wall = {DELIVER: 0.0, CONTROL: 0.0}
    ops = {DELIVER: 0, CONTROL: 0}
    spans: dict[str, list] = {}
    shares = []
    for phase, total in tracer.phases.items():
        plane = PLANE_OF_PHASE[phase]
        wall[plane] += total["wall"]
        ops[plane] += total["ops"]
        shares.append(total["covered"] / total["wall"])
        for name, (seconds, calls) in total["spans"].items():
            if PLANE_OF_SPAN[name] == plane:
                entry = spans.setdefault(name, [0.0, 0])
                entry[0] += seconds
                entry[1] += calls
    for name, plane in PLANE_OF_SPAN.items():
        seconds, calls = spans.get(name, (0.0, 0))
        metrics[f"{name}.self_share"] = seconds / wall[plane]
        metrics[f"{name}.calls_per_op"] = calls / ops[plane]
    for plane, layers in COUNTED_LAYERS.items():
        for layer in layers:
            metrics[f"pycalls.{plane}.{layer}"] = counted["by_layer"][plane].get(layer, 0.0)
    metrics.update(counted["counters"])
    metrics["monitor.subs_per_s"] = subs / min(samples.subscribe_s)
    metrics["monitor.cancels_per_s"] = cancelled / min(samples.cancel_s)
    metrics["process.cpu_us_per_delivery"] = min(samples.cpu_us)
    metrics["trace.overhead_ratio"] = max(samples.rates) / max(traced_rates)
    metrics["trace.attributed_share"] = min(shares)
    return metrics
