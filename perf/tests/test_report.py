"""Spreads, the self-check thresholds and the compare verdicts."""

import statistics

from perf import report
from perf.metrics import END_TO_END


def runs(**overrides) -> dict:
    base = {name: [100.0 + 0.1 * i for i in range(10)] for name, *_ in END_TO_END}
    base.update(overrides)
    return {"filter": base}


def test_spread_is_the_interquartile_distance_over_the_median():
    values = [float(v) for v in range(1, 11)]
    first, _, third = statistics.quantiles(values, n=4)
    assert report.spread(values) == (third - first) / 5.5


def test_selfcheck_passes_equal_sets_and_names_a_noisy_metric():
    _, failures = report.selfcheck(runs(), runs())
    assert failures == []
    noisy = [100.0, 150.0] * 5
    _, failures = report.selfcheck(runs(deliveries_per_s=noisy), runs())
    assert failures and all("deliveries_per_s" in failure for failure in failures)
    _, failures = report.selfcheck(runs(), runs(pycalls_per_sub=[104.0 + 0.1 * i for i in range(10)]))
    assert failures and "pycalls_per_sub" in failures[0]


def verdicts(old, new) -> dict:
    return {row["metric"]: row["verdict"] for row in report.compare(old, new)}


def test_compare_verdicts():
    old = runs()
    faster = [v * 1.5 for v in old["filter"]["deliveries_per_s"]]
    slower = [v * 0.5 for v in old["filter"]["deliveries_per_s"]]
    assert verdicts(old, runs(deliveries_per_s=faster))["deliveries_per_s"] == "improved"
    assert verdicts(old, runs(deliveries_per_s=slower))["deliveries_per_s"] == "regressed"
    assert verdicts(old, runs())["deliveries_per_s"] == "unchanged"
    wide = [60.0, 160.0] * 5
    assert verdicts(old, runs(deliveries_per_s=wide))["deliveries_per_s"] == "unresolved"
    # lower is better: fewer calls is an improvement, more than the bound a regression
    assert verdicts(old, runs(pycalls_per_sub=[90.0 + 0.1 * i for i in range(10)]))["pycalls_per_sub"] == "improved"
    assert verdicts(old, runs(pycalls_per_sub=[110.0 + 0.1 * i for i in range(10)]))["pycalls_per_sub"] == "regressed"
