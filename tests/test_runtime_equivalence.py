"""Single-process vs sharded runtime: same results, documented restrictions.

The sharded backend re-executes the same deployed plans in forked worker
processes, so its correctness statement is *multiset equivalence*: for any
workload the single-process runtime can also run (no peer churn, oracle
failure mode), both backends must deliver exactly the same multiset of
results.  Trace fingerprints are NOT compared across runtimes -- each shard
drains its own event heap, so cross-shard interleaving legitimately differs
-- which is also why loss-rate fault models are excluded here (which
messages are lost depends on per-shard RNG consumption order).
"""

import pytest

from repro.monitor import P2PMSystem
from repro.net.shard import shard_of
from repro.net.simnet import Message
from repro.net.wire import (
    decode_batch,
    decode_element,
    encode_batch,
    encode_element,
)
from repro.scenarios import make_scenario
from repro.workloads import EdosNetwork, MeteoScenario
from repro.xmlmodel.tree import Element


def canonical(element: Element):
    """A hashable, order-stable rendering of a result item."""
    return encode_element(element)


def result_multiset(items):
    return sorted(repr(canonical(item)) for item in items)


# -- deterministic shard assignment --------------------------------------------------


class TestShardOf:
    def test_deterministic_across_calls(self):
        assert shard_of("mirror0.edos.org", 4) == shard_of("mirror0.edos.org", 4)

    def test_in_range(self):
        for n in (2, 3, 8):
            for i in range(200):
                assert 0 <= shard_of(f"peer{i}", n) < n

    def test_spreads_peers(self):
        assignments = {shard_of(f"peer{i}", 4) for i in range(100)}
        assert assignments == {0, 1, 2, 3}


# -- the wire codec ------------------------------------------------------------------


class TestWireCodec:
    def make_tree(self):
        return Element(
            "alert",
            {"type": "slowAnswer", "n": "7"},
            [
                Element("call", {"callId": "42"}),
                Element("body", {"sev": "3"}, text="payload text"),
            ],
            text=None,
        )

    def test_element_roundtrip(self):
        tree = self.make_tree()
        decoded = decode_element(encode_element(tree))
        # re-encoding the decoded tree must be byte-identical: the codec is
        # the only thing crossing the process boundary, so it is the
        # equality oracle
        assert encode_element(decoded) == encode_element(tree)

    def test_batch_preserves_payload_sharing(self):
        payload = self.make_tree()
        messages = [
            Message("a", "b", "data", payload, 10, 0.0, 0.5),
            Message("a", "c", "data", payload, 10, 0.0, 0.7),
        ]
        decoded = decode_batch(encode_batch(messages))
        assert len(decoded) == 2
        # one fan-out payload is encoded once and decoded once
        assert decoded[0].payload is decoded[1].payload
        assert decoded[0].destination == "b"
        assert decoded[1].deliver_at == 0.7
        assert encode_element(decoded[0].payload) == encode_element(payload)


# -- workload equivalence ------------------------------------------------------------


class TestMeteoEquivalence:
    def run_meteo(self, runtime: str, shards: int = 2):
        scenario = MeteoScenario(
            threshold=10.0,
            slow_fraction=0.2,
            seed=11,
            runtime=runtime,
            shards=shards,
        )
        scenario.deploy()
        scenario.run_traffic(200)
        scenario.system.shutdown()
        return scenario

    def test_sharded_matches_single(self):
        single = self.run_meteo("single")
        sharded = self.run_meteo("sharded", shards=3)
        expected = single.expected_incidents(single.calls)
        assert expected, "workload must produce incidents for a meaningful test"
        assert result_multiset(sharded.incidents()) == result_multiset(
            single.incidents()
        )
        assert len(single.incidents()) == len(expected)

    def test_sharded_crosses_shard_boundaries(self):
        sharded = self.run_meteo("sharded", shards=3)
        stats = sharded.system.runtime.stats()
        assert stats["messages_exchanged"] > 0
        assert stats["results_harvested"] == len(sharded.incidents())


class TestEdosEquivalence:
    SUBSCRIPTION = """
        for $c in inCOM(<p>mirror0.edos.org</p> <p>mirror1.edos.org</p>)
        where $c.callMethod = "DownloadPackage" and $c.status = "fault"
        return <failure><mirror>{$c.callee}</mirror><client>{$c.caller}</client></failure>
        by publish as channel "edosFailures";
    """

    @pytest.fixture(scope="class")
    def event_log(self):
        # generate the event stream ONCE, detached from any system, so both
        # runtimes observe literally the same calls
        edos = EdosNetwork(n_mirrors=2, n_clients=10, failure_rate=0.3, seed=23)
        edos.run(300)
        return edos

    def run_monitoring(self, event_log, runtime: str, shards: int = 2):
        kwargs = {"seed": 23}
        if runtime == "sharded":
            kwargs.update(runtime="sharded", shards=shards)
        system = P2PMSystem(**kwargs)
        mirrors = set(event_log.mirrors)
        for mirror in event_log.mirrors:
            system.add_peer(mirror)
        monitor = system.add_peer("monitor.edos.org")
        task = monitor.subscribe(
            self.SUBSCRIPTION, sub_id="edos-failures", max_results=4096
        )
        system.run()
        system.start_runtime()
        for event in event_log.events:
            if event.call is not None and event.call.callee in mirrors:
                system.drive_alerter(
                    event.call.callee, "inCOM", "observe_call", event.call
                )
        system.run()
        system.shutdown()
        return task

    def test_sharded_matches_single(self, event_log):
        single = self.run_monitoring(event_log, "single")
        sharded = self.run_monitoring(event_log, "sharded", shards=2)
        reference = event_log.reference_statistics()
        assert reference["failed_downloads"] > 0
        assert len(single.results()) == reference["failed_downloads"]
        assert result_multiset(sharded.results()) == result_multiset(
            single.results()
        )


class TestCatalogEquivalence:
    # lossy-network is shardable but NOT multiset-comparable: which messages
    # the loss model drops depends on per-shard RNG consumption order
    @pytest.mark.parametrize("name", ["partition-heal", "flaky-network"])
    def test_same_delivered_multiset(self, name):
        single = make_scenario(name, seed=3, failure_mode="oracle").run()
        sharded = make_scenario(name, seed=3, runtime="sharded", shards=2).run()
        assert single.received, "scenario must deliver something"
        assert sorted(single.received) == sorted(sharded.received)

    def test_non_shardable_scenario_is_rejected(self):
        with pytest.raises(ValueError, match="cannot run sharded"):
            make_scenario("churn-soak", seed=0, runtime="sharded")


# -- v1 restrictions -----------------------------------------------------------------


class TestShardedRestrictions:
    def test_detector_failure_mode_is_rejected(self):
        with pytest.raises(ValueError, match="oracle"):
            P2PMSystem(runtime="sharded", shards=2, failure_mode="detector")

    def test_reliable_control_is_rejected(self):
        with pytest.raises(ValueError, match="reliable_control"):
            P2PMSystem(
                runtime="sharded",
                shards=2,
                failure_mode="oracle",
                reliable_control=True,
            )

    def test_fewer_than_two_shards_is_rejected(self):
        for shards in (0, 1):  # 0 is not a stand-in for the default
            with pytest.raises(ValueError, match="shards"):
                P2PMSystem(runtime="sharded", shards=shards, failure_mode="oracle")

    def test_unknown_runtime_is_rejected(self):
        with pytest.raises(ValueError, match="runtime"):
            P2PMSystem(runtime="distributed")

    def make_started_system(self):
        system = P2PMSystem(runtime="sharded", shards=2, failure_mode="oracle")
        system.add_peer("src")
        monitor = system.add_peer("monitor")
        monitor.subscribe(
            """
            for $x in chaosFeed(<p>src</p>)
            where $x.kind = "chaos" and $x.n >= 1
            return <seen>{$x.n}</seen>
            """,
            sub_id="watch",
            max_results=64,
        )
        system.run()
        system.start_runtime()
        return system, monitor

    def test_post_start_mutations_raise(self):
        system, monitor = self.make_started_system()
        try:
            with pytest.raises(RuntimeError, match="subscribe"):
                monitor.subscribe(
                    "for $x in chaosFeed(<p>src</p>) "
                    'where $x.kind = "chaos" return <late/>',
                    sub_id="late",
                )
            with pytest.raises(RuntimeError, match="fail_peer"):
                system.fail_peer("src")
            with pytest.raises(RuntimeError, match="add_peer"):
                system.add_peer("newcomer")
        finally:
            system.shutdown()

    def test_shutdown_is_idempotent(self):
        system, _ = self.make_started_system()
        system.shutdown()
        system.shutdown()


# -- the default backend is untouched ------------------------------------------------


class TestDefaultRuntime:
    def test_default_is_single_process(self):
        system = P2PMSystem()
        assert system.runtime.name == "single"

    def test_explicit_single_matches_default_fingerprint(self):
        default = make_scenario("partition-heal", seed=0, failure_mode="oracle").run()
        explicit = make_scenario(
            "partition-heal", seed=0, failure_mode="oracle", runtime="single"
        ).run()
        assert default.fingerprint == explicit.fingerprint
