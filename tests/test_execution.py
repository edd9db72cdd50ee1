"""One process, one scheduler: ``P2PMSystem`` drives its ``SimNetwork`` directly.

The system takes four parameters -- ``seed``, ``fault_model``,
``failure_mode`` and ``reliable_control`` -- and its option matrix is
``failure_mode x reliable_control``: four cells, all supported.  These tests
pin that surface:

* the constructor accepts exactly those four parameters;
* every cell of the matrix deploys, delivers and replays deterministically;
* ``run()``, ``tick()``, ``partition()``, ``heal()`` and
  ``set_fault_model()`` act on the one network in place;
* ``start_runtime()`` and ``shutdown()`` are no-ops, and nothing is frozen
  after them: subscribing, adding and failing peers keep working;
* workloads drive alerters in process (the chaos feed, EDOS, meteo);
* every catalog scenario replays byte-identically in both failure modes.
"""

from __future__ import annotations

import inspect

import pytest

from repro.algebra.plan import ALERTER, PUBLISH, UNION, PlanNode
from repro.monitor import P2PMSystem
from repro.monitor.control import ControlPlaneRouter
from repro.monitor.placement import place_plan
from repro.net.faults import FaultModel
from repro.scenarios import make_scenario, scenario_names
from repro.workloads import EdosNetwork, MeteoScenario
from repro.workloads.chaos_feed import CHAOS_FUNCTION, ChaosFeedWorkload

SOURCES = ["s0", "s1"]

CHAOS_SUBSCRIPTION = (
    f"for $x in {CHAOS_FUNCTION}(<p>s0</p> <p>s1</p>) "
    'where $x.kind = "chaos" '
    "return <seen><src>{$x.source}</src><n>{$x.n}</n></seen>"
)

MATRIX = [
    pytest.param("oracle", False, id="oracle-plain"),
    pytest.param("oracle", True, id="oracle-reliable-control"),
    pytest.param("detector", False, id="detector-plain"),
    pytest.param("detector", True, id="detector-reliable-control"),
]


def deploy(failure_mode: str = "oracle", reliable_control: bool = False, seed: int = 5):
    """Two chaos-feed sources and a monitor subscribed to both of them."""
    system = P2PMSystem(
        seed=seed, failure_mode=failure_mode, reliable_control=reliable_control
    )
    for source in SOURCES:
        system.add_peer(source)
    monitor = system.add_peer("monitor")
    system.network.record_events = True
    handle = monitor.subscribe(CHAOS_SUBSCRIPTION, sub_id="watch", max_results=256)
    system.run()
    return system, monitor, handle


def drive(system: P2PMSystem, workload: ChaosFeedWorkload, ticks) -> None:
    for tick in ticks:
        system.tick()
        workload.tick(system, tick)
        system.run()


def delivered(handle) -> list[tuple[str, int]]:
    return [
        (item.find("src").text, int(item.find("n").text)) for item in handle.results()
    ]


# -- the constructor ------------------------------------------------------------------


class TestConstructor:
    def test_signature_is_the_four_documented_parameters(self):
        parameters = list(inspect.signature(P2PMSystem.__init__).parameters)
        assert parameters == [
            "self",
            "seed",
            "fault_model",
            "failure_mode",
            "reliable_control",
        ]

    @pytest.mark.parametrize(
        "option, value",
        [
            ("runtime", "sharded"),
            ("shards", 2),
            ("shard_assigner", None),
            ("shard_turn_timeout", 1.0),
            ("placement_mode", "manager"),
        ],
    )
    def test_removed_parameter_is_rejected(self, option, value):
        with pytest.raises(TypeError, match=option):
            P2PMSystem(**{option: value})

    def test_unknown_failure_mode_is_rejected(self):
        with pytest.raises(ValueError, match="failure_mode"):
            P2PMSystem(failure_mode="gossip")

    def test_the_system_owns_exactly_one_network(self):
        system = P2PMSystem(seed=3)
        assert not hasattr(system, "runtime")
        first = system.add_peer("a")
        second = system.add_peer("b")
        assert first.net.network is system.network
        assert second.net.network is system.network
        assert system.network.seed == 3


# -- the option matrix: failure_mode x reliable_control -------------------------------


class TestOptionMatrix:
    @pytest.mark.parametrize("failure_mode, reliable_control", MATRIX)
    def test_cell_is_supported(self, failure_mode, reliable_control):
        system, _, handle = deploy(failure_mode, reliable_control)
        workload = ChaosFeedWorkload(SOURCES)
        drive(system, workload, range(1, 6))
        assert handle.is_active
        assert len(workload.emitted) == 10
        assert sorted(delivered(handle)) == sorted(workload.emitted)

    @pytest.mark.parametrize("failure_mode, reliable_control", MATRIX)
    def test_cell_replays_byte_identically(self, failure_mode, reliable_control):
        runs = []
        for _ in range(2):
            system, _, handle = deploy(failure_mode, reliable_control)
            drive(system, ChaosFeedWorkload(SOURCES), range(1, 6))
            runs.append((system.network.trace_fingerprint(), delivered(handle)))
        assert runs[0][1], "the run must deliver something"
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("failure_mode, reliable_control", MATRIX)
    def test_cell_wires_its_derived_machinery(self, failure_mode, reliable_control):
        system = P2PMSystem(failure_mode=failure_mode, reliable_control=reliable_control)
        peer = system.add_peer("a")
        detector_mode = failure_mode == "detector"
        assert (system.detector is not None) is detector_mode
        assert system.reliable_channels is detector_mode
        assert peer.net.channels.reliable is detector_mode
        assert isinstance(system.stream_db.router, ControlPlaneRouter) is reliable_control

    @pytest.mark.parametrize("failure_mode, reliable_control", MATRIX)
    def test_cell_survives_a_source_failure(self, failure_mode, reliable_control):
        system, _, handle = deploy(failure_mode, reliable_control)
        workload = ChaosFeedWorkload(SOURCES)
        drive(system, workload, range(1, 3))
        system.fail_peer("s1")
        for _ in range(12):  # enough rounds for the detector to confirm
            system.tick()
            system.run()
        drive(system, workload, range(3, 6))
        received = delivered(handle)
        assert len(received) == len(set(received))
        # the surviving source keeps delivering after the failure
        assert {("s0", n) for n in range(3, 6)} <= set(received)
        assert not any(src == "s1" and n >= 3 for src, n in workload.emitted)


# -- network control goes straight to the one network ---------------------------------


class TestNetworkControl:
    def test_run_drains_the_network_and_counts_deliveries(self):
        system, _, _ = deploy()
        workload = ChaosFeedWorkload(SOURCES)
        workload.tick(system, 1)
        assert system.network.pending_messages > 0
        assert system.run() > 0
        assert system.network.pending_messages == 0
        assert system.run() == 0

    def test_run_honours_max_steps(self):
        system, _, _ = deploy()
        ChaosFeedWorkload(SOURCES).tick(system, 1)
        pending = system.network.pending_messages
        assert pending >= 2
        assert system.run(max_steps=1) == 1
        assert system.network.pending_messages >= pending - 1

    def test_partition_holds_and_heal_releases(self):
        system, _, handle = deploy()
        workload = ChaosFeedWorkload(SOURCES)
        system.partition("split", ["s0", "s1"], ["monitor"])
        assert system.network.active_partitions == ["split"]
        drive(system, workload, range(1, 4))
        assert system.network.held_messages > 0
        assert handle.results() == []
        system.heal("split")
        system.run()
        assert system.network.active_partitions == []
        assert sorted(delivered(handle)) == sorted(workload.emitted)

    def test_heal_of_an_unknown_partition_is_a_no_op(self):
        system = P2PMSystem()
        system.heal("never-partitioned")
        assert system.network.active_partitions == []

    def test_set_fault_model_swaps_the_network_model(self):
        system = P2PMSystem()
        model = FaultModel(loss_rate=0.5)
        system.set_fault_model(model)
        assert system.network.fault_model is model
        system.set_fault_model(None)
        assert system.network.fault_model is None

    def test_fault_model_applies_to_the_next_send(self):
        system, _, handle = deploy()
        system.set_fault_model(FaultModel(loss_rate=1.0))
        workload = ChaosFeedWorkload(SOURCES)
        drive(system, workload, range(1, 4))
        assert system.network.messages_lost > 0
        assert handle.results() == []

    def test_oracle_tick_sends_nothing(self):
        system, _, _ = deploy("oracle")
        ticks_before = system.compile_stats.ticks
        system.tick()
        assert system.network.pending_messages == 0
        assert system.network.stats.reliability_snapshot()["heartbeats_sent"] == 0
        assert system.compile_stats.ticks == ticks_before + 1

    def test_detector_tick_sends_heartbeats(self):
        system, _, _ = deploy("detector")
        system.tick()
        assert system.network.stats.reliability_snapshot()["heartbeats_sent"] > 0
        assert system.network.pending_messages > 0

    def test_reliability_snapshot_keys(self):
        snapshot = P2PMSystem().network.stats.reliability_snapshot()
        assert sorted(snapshot) == [
            "acks_sent",
            "circuits_opened",
            "heartbeats_sent",
            "items_replayed",
            "items_retransmitted",
            "items_shed",
            "rpc_calls",
            "rpc_rejected",
            "rpc_retries",
            "rpc_timeouts",
        ]
        assert set(snapshot.values()) == {0}


# -- start_runtime() and shutdown() are no-ops ----------------------------------------


class TestLifecycleNoOps:
    def test_start_runtime_delivers_nothing(self):
        system, _, handle = deploy()
        ChaosFeedWorkload(SOURCES).tick(system, 1)
        pending = system.network.pending_messages
        events = list(system.network.event_log)
        system.start_runtime()
        assert system.network.pending_messages == pending
        assert system.network.event_log == events
        assert handle.results() == []

    def test_shutdown_is_idempotent_and_the_system_keeps_running(self):
        system, _, handle = deploy()
        system.start_runtime()
        system.shutdown()
        system.shutdown()
        workload = ChaosFeedWorkload(SOURCES)
        drive(system, workload, range(1, 3))
        assert sorted(delivered(handle)) == sorted(workload.emitted)

    def test_subscribe_after_start(self):
        system, monitor, _ = deploy()
        system.start_runtime()
        late = monitor.subscribe(
            f"for $x in {CHAOS_FUNCTION}(<p>s0</p>) "
            'where $x.kind = "chaos" return <late>{$x.n}</late>',
            sub_id="late",
            max_results=16,
        )
        system.run()
        drive(system, ChaosFeedWorkload(SOURCES), [1])
        assert [item.text for item in late.results()] == ["1"]

    def test_add_peer_after_start(self):
        system, _, _ = deploy()
        system.start_runtime()
        newcomer = system.add_peer("newcomer")
        assert system.has_peer("newcomer")
        assert system.is_alive("newcomer")
        assert "newcomer" in system.kadop.ring
        assert newcomer.net.network is system.network

    def test_fail_peer_after_start(self):
        system, _, _ = deploy()
        system.start_runtime()
        assert system.fail_peer("s0") is True
        assert system.down_peers() == frozenset({"s0"})
        assert system.fail_peer("s0") is False
        assert system.revive_peer("s0") is True
        assert system.down_peers() == frozenset()

    def test_cancel_after_start(self):
        system, _, handle = deploy()
        system.start_runtime()
        assert handle.cancel() is True
        system.run()
        assert handle.status == "cancelled"
        drive(system, ChaosFeedWorkload(SOURCES), [1])
        assert handle.results() == []


# -- workloads drive their alerters in process -----------------------------------------


class TestChaosFeedWorkload:
    def test_tick_emits_once_per_alive_source(self):
        system, _, handle = deploy()
        # a callback sees every incarnation: the failure below redeploys the
        # subscription, and results() holds only the live task's buffer
        received = []
        handle.on_result(
            lambda item: received.append((item.find("src").text, int(item.find("n").text)))
        )
        workload = ChaosFeedWorkload(SOURCES)
        assert workload.tick(system, 1) == 2
        system.run()
        system.fail_peer("s1")
        system.run()
        assert workload.tick(system, 2) == 1
        system.run()
        assert workload.emitted == [("s0", 1), ("s1", 1), ("s0", 2)]
        assert sorted(received) == sorted(workload.emitted)

    def test_tick_skips_sources_without_an_alerter(self):
        system = P2PMSystem()
        system.add_peer("idle")
        workload = ChaosFeedWorkload(["idle"])
        assert workload.tick(system, 1) == 0
        assert workload.emitted == []

    def test_emitted_since(self):
        system, _, _ = deploy()
        workload = ChaosFeedWorkload(SOURCES)
        drive(system, workload, range(1, 4))
        assert workload.emitted_since(3) == [("s0", 3), ("s1", 3)]


class TestEdos:
    SUBSCRIPTION = """
        for $c in inCOM(<p>mirror0.edos.org</p> <p>mirror1.edos.org</p>)
        where $c.callMethod = "DownloadPackage" and $c.status = "fault"
        return <failure><mirror>{$c.callee}</mirror><client>{$c.caller}</client></failure>
        by publish as channel "edosFailures";
    """

    @pytest.fixture(scope="class")
    def event_log(self):
        # the event stream is generated once, detached from any system, so
        # every monitoring run observes literally the same calls
        edos = EdosNetwork(n_mirrors=2, n_clients=10, failure_rate=0.3, seed=23)
        edos.run(300)
        return edos

    def monitor(self, event_log):
        system = P2PMSystem(seed=23)
        mirrors = set(event_log.mirrors)
        for mirror in event_log.mirrors:
            system.add_peer(mirror)
        monitor = system.add_peer("monitor.edos.org")
        task = monitor.subscribe(
            self.SUBSCRIPTION, sub_id="edos-failures", max_results=4096
        )
        system.run()
        for event in event_log.events:
            if event.call is not None and event.call.callee in mirrors:
                system.peer(event.call.callee).alerter("inCOM").observe_call(event.call)
        system.run()
        return task

    def test_failures_match_the_reference(self, event_log):
        task = self.monitor(event_log)
        reference = event_log.reference_statistics()
        assert reference["failed_downloads"] > 0
        assert len(task.results()) == reference["failed_downloads"]
        assert {item.find("mirror").text for item in task.results()} <= set(
            event_log.mirrors
        )

    def test_same_log_same_results(self, event_log):
        first = [item.structural_key() for item in self.monitor(event_log).results()]
        second = [item.structural_key() for item in self.monitor(event_log).results()]
        assert first
        assert first == second


class TestMeteo:
    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_incidents_match_reference_and_replay(self, seed):
        runs = []
        for _ in range(2):
            scenario = MeteoScenario(threshold=10.0, slow_fraction=0.2, seed=seed)
            scenario.deploy()
            scenario.run_traffic(200)
            expected = scenario.expected_incidents(scenario.calls)
            incidents = scenario.incidents()
            assert expected, "the workload must produce incidents"
            assert len(incidents) == len(expected)
            runs.append([item.structural_key() for item in incidents])
        assert runs[0] == runs[1]


# -- placement has one policy ----------------------------------------------------------


class TestPlacement:
    def make_plan(self) -> PlanNode:
        alerters = [
            PlanNode(ALERTER, params={"function": CHAOS_FUNCTION, "peer": peer})
            for peer in SOURCES
        ]
        return PlanNode(PUBLISH, children=[PlanNode(UNION, children=alerters)])

    def test_union_at_a_source_and_publisher_at_the_manager(self):
        plan = place_plan(self.make_plan(), "monitor")
        assert plan.placement == "monitor"
        union = plan.find_all(UNION)[0]
        assert union.placement in SOURCES
        assert [child.placement for child in union.children] == SOURCES

    def test_colocate_is_gone(self):
        with pytest.raises(TypeError, match="colocate"):
            place_plan(self.make_plan(), "monitor", colocate=True)


# -- every catalog scenario replays byte-identically -----------------------------------


class TestScenarioReplay:
    @pytest.mark.parametrize("failure_mode", ["oracle", "detector"])
    @pytest.mark.parametrize("name", scenario_names())
    def test_same_seed_same_fingerprint(self, name, failure_mode):
        first = make_scenario(name, seed=3, failure_mode=failure_mode).run()
        second = make_scenario(name, seed=3, failure_mode=failure_mode).run()
        assert first.received, "the scenario must deliver something"
        assert first.ok, [inv for inv in first.invariants if not inv.ok]
        assert first.fingerprint == second.fingerprint
