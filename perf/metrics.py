"""Names, units, directions and bounds of every metric the benchmark prints.

``BENCHMARK.json`` carries the same tables; ``perf/tests`` keeps the two equal.
"""

from __future__ import annotations

from perf.layers import COUNTED_LAYERS, PLANE_OF_SPAN

#: name, unit, better, bound (the share of the parent's median by which the
#: metric may get worse).  The wall-clock bounds are the widest the contract
#: allows: the gate host disturbs same-code runs by 20-30 %.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("deliveries_per_s", "1/s", "higher", 0.25),
    ("alert_latency_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("pycalls_per_delivery", "count", "lower", 0.05),
    ("pycalls_per_sub", "count", "lower", 0.05),
    ("pycalls_per_cancel", "count", "lower", 0.05),
)

#: wall-clock metrics: the others repeat (nearly) exactly
WALL_CLOCK = ("setup_s", "deliveries_per_s", "alert_latency_ms_p50")

_COUNTERS = (
    ("compile.cse_hit_rate", "ratio", "higher"),
    ("compile.plan_cache_hit_rate", "ratio", "higher"),
    ("compile.batch_share", "ratio", "higher"),
    ("compile.fallbacks", "count", "lower"),
    ("filtering.deliveries_per_alert", "count", "higher"),
    ("net.simnet.messages_per_delivery", "count", "lower"),
    ("net.simnet.bytes_per_delivery", "count", "lower"),
    ("monitor.reuse.hit_rate", "ratio", "higher"),
    ("monitor.reuse.signature_cache_hit_rate", "ratio", "higher"),
    ("monitor.operators_deployed", "count", "lower"),
    ("monitor.ledger_keys_after_cancel_all", "count", "lower"),
    ("monitor.subs_per_s", "1/s", "higher"),
    ("monitor.cancels_per_s", "1/s", "higher"),
    ("dht.kadop.query_cache_hit_rate", "ratio", "higher"),
    ("process.cpu_us_per_delivery", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.attributed_share", "share", "higher"),
)


#: name, unit, better of every per-layer metric
PER_LAYER = (
    *(
        spec
        for span in PLANE_OF_SPAN
        for spec in ((f"{span}.self_share", "share", "lower"), (f"{span}.calls_per_op", "count", "lower"))
    ),
    *(
        (f"pycalls.{plane}.{layer}", "count", "lower")
        for plane, layers in COUNTED_LAYERS.items()
        for layer in layers
    ),
    *_COUNTERS,
)
UNITS = {name: unit for name, unit, *_ in (*END_TO_END, *PER_LAYER)}


def benchmark_json(workloads) -> dict:
    """The contents of ``BENCHMARK.json`` for ``workloads`` (name -> Workload)."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": 30,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER],
    }
