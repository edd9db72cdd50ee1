"""Tests for the declarative chaos-scenario harness and its invariants."""

import pytest

from repro.net.faults import FaultModel
from repro.scenarios import (
    ChaosScenario,
    ChurnSpec,
    ScenarioAction,
    make_scenario,
    scenario_names,
)
from repro.scenarios.invariants import check


class TestGoldenTrace:
    """Acceptance criterion: same seed => byte-identical event traces."""

    def test_same_seed_identical_trace(self):
        first = make_scenario("churn-failover", seed=5).run()
        second = make_scenario("churn-failover", seed=5).run()
        assert first.event_log == second.event_log
        assert first.received == second.received
        assert first.fingerprint == second.fingerprint

    def test_different_seed_differs(self):
        first = make_scenario("churn-soak", seed=5).run()
        second = make_scenario("churn-soak", seed=6).run()
        assert first.fingerprint != second.fingerprint

    def test_trace_records_disruptions(self):
        result = make_scenario("partition-heal", seed=0).run()
        assert any("partition split" in event for event in result.event_log)
        assert any("heal split" in event for event in result.event_log)
        assert any("hold split" in event for event in result.event_log)


class TestCatalog:
    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("seed", [0, 7])
    def test_scenario_invariants_hold(self, name, seed):
        result = make_scenario(name, seed=seed).run()
        failures = [inv for inv in result.invariants if not inv.ok]
        assert not failures, f"{name} seed={seed}: {failures}"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            make_scenario("nope")

    def test_unknown_invariant_rejected(self):
        result = make_scenario("partition-heal", seed=0).run()
        with pytest.raises(ValueError):
            check("made-up", result)


class TestAcceptance:
    """The issue's end-to-end criterion, asserted step by step."""

    def test_failed_peer_recovers_and_resumes_without_duplicates(self):
        scenario = ChaosScenario(
            name="acceptance",
            seed=2,
            n_sources=3,
            ticks=20,
            schedule=(
                ScenarioAction(
                    3,
                    "partition",
                    {"name": "cut", "groups": [["@monitor"], ["@sources"]]},
                ),
                ScenarioAction(7, "heal", "cut"),
                ScenarioAction(10, "fail", "@union-host"),
                ScenarioAction(16, "revive", "@union-host"),
            ),
            invariants=("exactly-once", "no-duplicates", "recovers"),
        )
        result = scenario.run()
        assert result.ok, [inv for inv in result.invariants if not inv.ok]
        # the subscription went through RECOVERING and was redeployed degraded
        outcomes = [event.outcome for event in result.recovery_events]
        assert "recovering" in outcomes
        assert "degraded" in outcomes
        assert result.final_status == "deployed"
        # it kept delivering after the failure: alerts numbered past the fail
        # tick arrived from the surviving sources
        fail_tick = next(t for t, kind, _ in result.disruptions if kind == "fail")
        assert any(n > fail_tick for _, n in result.received)
        # and exactly-once held across the partition heal
        assert sorted(result.received) == sorted(set(result.emitted))

    def test_flaky_network_duplicates_are_dropped(self):
        scenario = ChaosScenario(
            name="dup-test",
            seed=4,
            n_sources=2,
            ticks=12,
            fault_model=FaultModel(duplication_rate=1.0),
            invariants=("exactly-once", "no-duplicates"),
        )
        result = scenario.run()
        assert result.network_counters["duplicated"] > 0
        assert result.ok, [inv for inv in result.invariants if not inv.ok]

    def test_churn_spec_is_deterministic(self):
        scenario_a = ChaosScenario(
            name="churny",
            seed=9,
            n_sources=4,
            ticks=25,
            churn=ChurnSpec(fail_rate=0.3, revive_rate=0.5, max_down=2),
            invariants=("no-duplicates", "drain-delivered"),
        )
        scenario_b = ChaosScenario(
            name="churny",
            seed=9,
            n_sources=4,
            ticks=25,
            churn=ChurnSpec(fail_rate=0.3, revive_rate=0.5, max_down=2),
            invariants=("no-duplicates", "drain-delivered"),
        )
        first, second = scenario_a.run(), scenario_b.run()
        assert first.disruptions == second.disruptions
        assert first.fingerprint == second.fingerprint
        assert first.ok and second.ok


class TestRunnerCli:
    def test_main_pass_and_determinism(self, capsys):
        from scenarios.run_scenario import main

        assert main(["partition-heal", "--seed", "1", "--check-determinism"]) == 0
        out = capsys.readouterr().out
        assert "determinism: identical trace" in out

    def test_main_json_output(self, capsys):
        import json

        from scenarios.run_scenario import main

        assert main(["churn-failover", "--seed", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["scenario"] == "churn-failover"

    @pytest.mark.parametrize(
        "flag", [["--runtime", "sharded"], ["--shards", "2"], ["--compare-runtimes"]]
    )
    def test_removed_runtime_flags_are_rejected(self, flag, capsys):
        from scenarios.run_scenario import main

        with pytest.raises(SystemExit) as excinfo:
            main(["partition-heal", *flag])
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_main_list(self, capsys):
        from scenarios.run_scenario import main

        assert main(["--list"]) == 0
        assert capsys.readouterr().out.split() == [
            "churn-failover",
            "churn-soak",
            "flaky-network",
            "lossy-control-plane",
            "lossy-network",
            "partition-heal",
            "silent-kill",
        ]
