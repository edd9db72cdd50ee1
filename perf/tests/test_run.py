"""The command: names printed equal BENCHMARK.json, --quick passes, decks repeat."""

import json
import time
from pathlib import Path

import pytest

from perf import metrics, run
from perf.workloads import WORKLOADS

REPO = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def test_benchmark_json_is_the_table_of_perf_metrics():
    assert BENCHMARK == metrics.benchmark_json(WORKLOADS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["filter", "fanout", "ingest"]


@pytest.fixture(scope="module")
def quick_results():
    run._bootstrap()
    started = time.perf_counter()
    results = {}
    for name in WORKLOADS:
        for trace in (False, True):
            code, result = run.run_one(name, seed=3, seconds=0.0, trace=trace, scale=0.1)
            assert code == 0
            results[name, trace] = result
    return results, time.perf_counter() - started


def test_quick_passes_its_checks_in_time(quick_results):
    results, took = quick_results
    assert took < 15
    for result in results.values():
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 100


def test_names_and_units_printed_equal_benchmark_json(quick_results):
    results, _ = quick_results
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            printed = {metric: entry["unit"] for metric, entry in results[name, trace]["metrics"].items()}
            assert printed == {spec["name"]: spec["unit"] for spec in BENCHMARK[key]}
    for spec in BENCHMARK["end_to_end"]:
        assert all(results[name, False]["metrics"][spec["name"]]["value"] > 0 for name in WORKLOADS)


def test_counts_repeat_with_one_seed(quick_results):
    results, _ = quick_results
    exact = [name for name, *_ in metrics.END_TO_END if name.startswith("pycalls")]
    for name in WORKLOADS:
        _, again = run.run_one(name, seed=3, seconds=0.0, trace=False, scale=0.1)
        for metric in exact:
            assert again["metrics"][metric] == results[name, False]["metrics"][metric]


def test_layer_expectations_hold_at_small_size(quick_results):
    results, _ = quick_results
    filter_, fanout = results["filter", True]["metrics"], results["fanout", True]["metrics"]
    assert filter_["net.simnet.messages_per_delivery"]["value"] == 0
    assert filter_["net.simnet.send.calls_per_op"]["value"] == 0
    assert fanout["net.simnet.messages_per_delivery"]["value"] > 0
    assert fanout["compile.pipeline.self_share"]["value"] < filter_["compile.pipeline.self_share"]["value"]
    for name in WORKLOADS:
        layer = results[name, True]["metrics"]
        assert layer["trace.attributed_share"]["value"] > 0.85
        assert layer["monitor.ledger_keys_after_cancel_all"]["value"] == 0


def test_an_oracle_mismatch_is_reported_not_measured(monkeypatch, capsys):
    from perf import oracle

    real = oracle._fanout_result
    monkeypatch.setitem(oracle._RESULT, (oracle.FanoutSub, oracle.Numbered),
                        lambda sub, alert: real(sub, alert) if alert.n != 7 else None)
    code, result = run.run_one("fanout", seed=3, seconds=0.0, trace=False, scale=0.1)
    assert code == 2 and result is None
    assert "INCORRECT: fanout" in capsys.readouterr().out
