"""Subscription lifecycle: handles, bounded results, pause/resume, cancel/teardown."""

import json
from collections import Counter
from pathlib import Path

import pytest
from test_delivery_tail import valve_on

from repro.algebra.plan import EXISTING
from repro.monitor import P2PMSystem, SubscriptionStateError
from repro.monitor.lifecycle import ResourceLedger, ResultBuffer
from repro.streams.stream import Stream, collect
from repro.workloads import MeteoScenario, RSSFeedSimulator
from repro.workloads.chaos_feed import CHAOS_FUNCTION
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.tree import Element

CANCEL_RECORDING_PATH = Path(__file__).parent / "data" / "cancel_recording.json"


def item(n):
    return Element("item", {"n": str(n)})


class TestResultBuffer:
    def test_bounded_with_oldest_eviction(self):
        buffer = ResultBuffer(max_results=3)
        for n in range(5):
            buffer.push(item(n))
        assert [e.attrib["n"] for e in buffer.snapshot()] == ["2", "3", "4"]
        assert buffer.dropped == 2
        assert len(buffer) == 3

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValueError):
            ResultBuffer(0)


class TestDeliveryValve:
    def test_pause_retains_and_resume_flushes(self):
        source = Stream("src")
        valve = valve_on(source)
        seen = collect(valve)
        source.emit(item(1))
        valve.pause()
        source.emit(item(2))
        source.emit(item(3))
        assert len(seen) == 1 and valve.pending_count == 2
        valve.resume()
        assert [e.attrib["n"] for e in seen] == ["1", "2", "3"]
        assert valve.items_delivered == 3

    def test_pause_buffer_is_bounded(self):
        source = Stream("src")
        valve = valve_on(source, max_pause_buffer=2)
        seen = collect(valve)
        valve.pause()
        for n in range(5):
            source.emit(item(n))
        assert valve.dropped_while_paused == 3
        valve.resume()
        assert [e.attrib["n"] for e in seen] == ["3", "4"]

    def test_eos_while_paused_closes_on_resume(self):
        source = Stream("src")
        valve = valve_on(source)
        valve.pause()
        source.emit(item(1))
        source.close()
        assert not valve.closed
        valve.resume()
        assert valve.closed
        assert valve.stats.items == 1

    def test_disconnect_stops_delivery(self):
        source = Stream("src")
        valve = valve_on(source)
        seen = collect(valve)
        valve.disconnect()
        source.emit(item(1))
        source.close()
        assert seen == [] and not valve.closed


class TestResourceLedger:
    def test_teardown_runs_when_last_holder_releases(self):
        ledger = ResourceLedger()
        done = []
        ledger.register("r", [lambda n=n: done.append(n) for n in "abc"])
        ledger.retain("r", "h1")
        ledger.retain("r", "h2")
        assert not ledger.release("r", "h1") and done == []
        assert ledger.release("r", "h2")
        assert done == ["a", "b", "c"]
        assert not ledger.known("r")
        # further releases of a gone entry are harmless
        assert not ledger.release("r", "h2")

    def test_register_is_idempotent(self):
        ledger = ResourceLedger()
        assert ledger.register("r")
        ledger.retain("r", "h")
        assert not ledger.register("r")
        assert ledger.holders("r") == {"h"}

    def test_failing_undo_does_not_skip_the_rest(self):
        ledger = ResourceLedger()
        done = []
        ledger.register("in", [lambda: done.append("in")])
        ledger.register(
            "r",
            [
                lambda: done.append("a"),
                lambda: (_ for _ in ()).throw(RuntimeError("boom")),
                lambda: done.append("b"),
            ],
            inputs=["in"],
        )
        ledger.retain("r", "h")
        with pytest.raises(RuntimeError, match="boom"):
            ledger.release("r", "h")
        assert done == ["a", "b", "in"]  # later undos and the inputs still went
        assert len(ledger) == 0

    def test_entries_hold_their_inputs_and_release_them_after_their_undo(self):
        ledger = ResourceLedger()
        done = []
        ledger.register("shared", [lambda: done.append("shared")])
        ledger.register("left", [lambda: done.append("left")], inputs=["shared", "foreign"])
        ledger.register("right", [lambda: done.append("right")], inputs=["shared"])
        # an input nobody registered is held all the same, with nothing to undo
        assert ledger.holders("foreign") == {"left"}
        assert ledger.holders("shared") == {"left", "right"}
        # an entry nothing holds goes on release(key)
        assert ledger.release("left")
        assert done == ["left"] and not ledger.known("foreign")
        assert ledger.release("right")
        assert done == ["left", "right", "shared"]
        assert len(ledger) == 0 and not ledger.release("right")


def rss_system(seed=5, **subscribe_options):
    system = P2PMSystem(seed=seed)
    system.add_peer("feeds.example")
    monitor = system.add_peer("watcher.example")
    feed = RSSFeedSimulator("http://feeds.example/rss", seed=seed)
    system.peer("feeds.example").register_feed(feed.feed_url, feed.snapshot)
    handle = monitor.subscribe(
        'for $x in rssFeed(<p>feeds.example</p>) where $x.kind = "add" '
        "return <fresh>{$x.entry}</fresh>",
        sub_id="fresh",
        **subscribe_options,
    )
    system.run()
    return system, monitor, feed, handle


def drive(system, feed, rounds=5):
    alerter = system.peer("feeds.example").alerter("rssFeed")
    alerter.poll()
    for _ in range(rounds):
        feed.tick()
        alerter.poll()
    system.run()


class TestHandleBasics:
    def test_results_require_opt_in(self):
        system, monitor, feed, handle = rss_system()
        with pytest.raises(RuntimeError, match="max_results"):
            handle.results()

    def test_bounded_results_and_stats(self):
        system, monitor, feed, handle = rss_system(max_results=1)
        drive(system, feed, rounds=8)
        results = handle.results()
        assert len(results) == 1  # bounded: only the freshest result retained
        stats = handle.stats()
        assert stats["results_buffered"] == 1
        assert stats["results_dropped"] == stats["items_delivered"] - 1 > 0
        assert stats["status"] == "deployed"
        assert list(handle) == results

    def test_on_result_callback(self):
        system, monitor, feed, handle = rss_system()
        seen = []
        unsubscribe = handle.on_result(seen.append)
        drive(system, feed, rounds=3)
        assert seen and all(e.tag == "fresh" for e in seen)
        count = len(seen)
        unsubscribe()
        drive(system, feed, rounds=3)
        assert len(seen) == count

    def test_failed_deploy_leaves_no_phantom_record(self):
        system = P2PMSystem(seed=9)
        system.add_peer("a.example")
        monitor = system.add_peer("m.example")
        bad = "for $x in noSuchAlerter(<p>a.example</p>) return $x"
        with pytest.raises(ValueError):
            monitor.subscribe(bad, sub_id="retry-me")
        assert "retry-me" not in monitor.manager.database
        # the sub_id is reusable after the failure
        feed = RSSFeedSimulator("http://a.example/rss", seed=9)
        system.peer("a.example").register_feed(feed.feed_url, feed.snapshot)
        handle = monitor.subscribe(
            "for $x in rssFeed(<p>a.example</p>) return $x",
            sub_id="retry-me",
            max_results=10,
        )
        assert handle.status == "deployed"

    def test_manager_hands_out_equivalent_handles(self):
        system, monitor, feed, handle = rss_system(max_results=10)
        other = monitor.manager.handle("fresh")
        drive(system, feed)
        assert other.results() == handle.results()
        assert other.status == handle.status == "deployed"


class TestPauseResume:
    def test_pause_stops_delivery_resume_flushes(self):
        system, monitor, feed, handle = rss_system(max_results=100)
        drive(system, feed, rounds=2)
        before = len(handle.results())
        handle.pause()
        assert handle.status == "paused"
        drive(system, feed, rounds=3)
        assert len(handle.results()) == before
        handle.resume()
        assert handle.status == "deployed"
        assert len(handle.results()) > before

    def test_pause_gates_the_publisher_too(self):
        scenario = MeteoScenario(seed=31, slow_fraction=0.3)
        handle = scenario.deploy()
        scenario.run_traffic(100)
        relayed = handle.publisher.items_published
        handle.pause()
        scenario.run_traffic(100)
        assert handle.publisher.items_published == relayed
        handle.resume()
        assert handle.publisher.items_published == len(scenario.expected_incidents(scenario.calls))

    def test_verbs_are_idempotent(self):
        system, monitor, feed, handle = rss_system()
        handle.resume()  # already deployed: no-op
        handle.pause()
        handle.pause()
        assert handle.status == "paused"
        handle.resume()
        assert handle.status == "deployed"

    def test_no_lifecycle_after_cancel(self):
        system, monitor, feed, handle = rss_system()
        assert handle.cancel()
        assert handle.status == "cancelled"
        assert not handle.is_active
        assert handle.cancel() is False
        with pytest.raises(SubscriptionStateError):
            handle.pause()
        with pytest.raises(SubscriptionStateError):
            handle.resume()


class TestCancelTeardown:
    def test_cancel_detaches_operators_and_retracts_ads(self):
        scenario = MeteoScenario(seed=13, slow_fraction=0.3)
        handle = scenario.deploy()
        scenario.run_traffic(60)
        assert len(handle.results()) > 0
        system = scenario.system
        deployed_operators = sum(len(system.peer(p).operators) for p in system.peer_ids)
        assert deployed_operators == handle.operator_count
        assert system.stream_db.all_stream_descriptions()

        assert handle.cancel()
        # every operator this subscription exclusively owned is detached
        assert sum(len(system.peer(p).operators) for p in system.peer_ids) == 0
        # all Stream Definition Database advertisements are retracted
        assert system.stream_db.all_stream_descriptions() == []
        assert len(system.resources) == 0
        # the published channel name is freed for reuse
        assert not scenario.monitor.net.channels.publishes("alertQoS")

        # traffic after cancel reaches nobody and nothing overflows
        frozen = len(handle.results())
        scenario.run_traffic(60)
        assert len(handle.results()) == frozen

    def test_cancelled_streams_are_invisible_to_reuse(self):
        scenario = MeteoScenario(seed=17, slow_fraction=0.3)
        first = scenario.deploy()
        first.cancel()
        second = scenario.monitor.subscribe(
            scenario.subscription_text(), sub_id="meteo-qos-2", max_results=100
        )
        scenario.system.run()
        assert second.reuse_report.nodes_reused == 0
        scenario.run_traffic(80)
        assert len(second.results()) == len(scenario.expected_incidents(scenario.calls))

    def test_local_mode_subscription_cancels_cleanly(self):
        system, monitor, feed, handle = rss_system(max_results=10)
        drive(system, feed, rounds=2)
        handle.cancel()
        assert len(system.resources) == 0
        assert system.stream_db.all_stream_descriptions() == []

    def test_dynamic_membership_cancel_disconnects_sources(self):
        system = P2PMSystem(seed=5)
        server = system.add_peer("server0.example")
        monitor = system.add_peer("monitor.example")
        handle = monitor.subscribe(
            """
            for $j in areRegistered(<p>monitor.example</p>),
                $c in inCOM($j)
            where $c.callMethod = "Get"
            return <seen callee="{$c.callee}"/>
            """,
            sub_id="dynamic-watch",
            max_results=100,
        )
        system.run()
        system.kadop.join_peer("server0.example")
        system.run()
        assert any(p.dynamic_sources for p in (system.peer(i) for i in system.peer_ids))
        handle.cancel()
        assert all(
            not system.peer(peer_id).dynamic_sources for peer_id in system.peer_ids
        )
        assert len(system.resources) == 0


class TestCancelReuseInteraction:
    """The satellite scenario: cancel a subscription whose streams are reused."""

    def test_shared_streams_survive_first_cancel_then_full_teardown(self):
        scenario = MeteoScenario(seed=23, slow_fraction=0.3)
        system = scenario.system
        first = scenario.deploy()
        second = scenario.monitor.subscribe(
            scenario.subscription_text(), sub_id="meteo-qos-2", max_results=10_000
        )
        system.run()
        assert second.reuse_report.nodes_reused > 0
        scenario.run_traffic(80)
        assert len(second.results()) == len(first.results()) > 0

        assert first.cancel()
        # the shared streams and the shared alerters survive ...
        assert sum(len(system.peer(p).operators) for p in system.peer_ids) > 0
        assert system.stream_db.find_alerter_streams("a.com", "outCOM")
        assert system.peer("a.com").alerter("outCOM") is not None
        # ... and the co-subscriber keeps receiving results
        scenario.run_traffic(80)
        assert len(second.results()) == len(scenario.expected_incidents(scenario.calls))
        assert len(second.results()) > len(first.results())

        assert second.cancel()
        # now everything is gone: operators, advertisements, ledger entries
        assert sum(len(system.peer(p).operators) for p in system.peer_ids) == 0
        assert system.stream_db.all_stream_descriptions() == []
        assert system.stream_db.find_alerter_streams("a.com", "outCOM") == []
        assert len(system.resources) == 0

    def test_partial_overlap_releases_only_shared_sources(self):
        scenario = MeteoScenario(seed=29, slow_fraction=0.3)
        system = scenario.system
        first = scenario.deploy()
        other = scenario.monitor.subscribe(
            """
            for $c in outCOM(<p>a.com</p>)
            where $c.callMethod = "GetHumidity"
            return <humidity-call>{$c.callId}</humidity-call>
            by publish as channel "humidity";
            """,
            sub_id="humidity-watch",
            max_results=1000,
        )
        system.run()
        assert any(kind == "alerter" for kind, _, _ in other.reuse_report.reused)

        first.cancel()
        # the overlapping alerter stream stays advertised for the survivor
        assert system.stream_db.find_alerter_streams("a.com", "outCOM")
        scenario.run_traffic(100)
        humidity_calls = [
            c for c in scenario.calls if c.method == "GetHumidity" and c.caller == "a.com"
        ]
        assert len(other.results()) == len(humidity_calls) > 0

        other.cancel()
        assert system.stream_db.all_stream_descriptions() == []
        assert len(system.resources) == 0


class TestChannelNameLifecycle:
    """The satellite: collision-suffixed names agree everywhere and are freed."""

    def find_publisher_ads(self, system, peer_id):
        return [
            d
            for d in system.stream_db.all_stream_descriptions()
            if d.operator == "Publisher" and d.peer_id == peer_id
        ]

    def test_suffixed_name_agrees_across_bookkeeping_and_streamdb(self):
        scenario = MeteoScenario(seed=37)
        first = scenario.deploy()
        second = scenario.monitor.subscribe(
            scenario.subscription_text(), sub_id="meteo-qos-2", max_results=10
        )
        scenario.system.run()
        monitor_id = scenario.monitor.peer_id
        assert second.publisher.channel_id == "alertQoS-2"
        assert f"#alertQoS-2@{monitor_id}" in second.channels_created
        advertised = {d.stream_id for d in self.find_publisher_ads(scenario.system, monitor_id)}
        assert {"alertQoS", "alertQoS-2"} <= advertised
        assert scenario.monitor.net.channels.publishes("alertQoS-2")

    def test_cancel_frees_the_channel_name(self):
        scenario = MeteoScenario(seed=41)
        first = scenario.deploy()
        second = scenario.monitor.subscribe(
            scenario.subscription_text(), sub_id="meteo-qos-2", max_results=10
        )
        scenario.system.run()
        assert second.publisher.channel_id == "alertQoS-2"
        second.cancel()
        monitor_id = scenario.monitor.peer_id
        assert not scenario.monitor.net.channels.publishes("alertQoS-2")
        advertised = {d.stream_id for d in self.find_publisher_ads(scenario.system, monitor_id)}
        assert "alertQoS-2" not in advertised
        # a later subscription gets the freed name again, not -3
        third = scenario.monitor.subscribe(
            scenario.subscription_text(), sub_id="meteo-qos-3", max_results=10
        )
        scenario.system.run()
        assert third.publisher.channel_id == "alertQoS-2"
        first.cancel()
        third.cancel()
        assert len(scenario.system.resources) == 0


# -- teardown order, frozen ------------------------------------------------------

REPLICA_TEXT = (
    f'for $x in {CHAOS_FUNCTION}(<p>s0</p><p>s1</p>) where $x.kind = "chaos" '
    "return <seen><src>{$x.source}</src><n>{$x.n}</n></seen>"
)

#: system options the recording covers: plain, RPC-announced unsubscribes and
#: retractions, and reliable channels (local consumers read through proxies)
RECORDED_SYSTEMS = {
    "oracle": {},
    "reliable-control": {"reliable_control": True},
    "detector": {"failure_mode": "detector"},
}

#: cancel orders: the consumer alone, and producer first so the consumer's
#: cancel tears down the whole graph
RECORDED_ORDERS = {"b": ["b"], "a-then-b": ["a", "b"]}


def record_cancels(options: dict, order: list[str]) -> list[dict]:
    """What cancelling ``order`` sends, delivers and unpublishes, in order.

    ``a`` deploys a two-source union at ``m1``; ``b`` at ``m2`` (placed next
    to ``m1``) reuses ``a``'s root stream through ``m1``'s replica and
    publishes it as channel ``seen``.
    """
    system = P2PMSystem(seed=5, **options)
    for peer_id, coordinates in [
        ("s0", (0.0, 0.0)), ("s1", (0.0, 0.1)), ("m1", (1.0, 1.0)), ("m2", (1.0, 1.02))
    ]:
        system.add_peer(peer_id, coordinates=coordinates)
    handles = {"a": system.peer("m1").subscribe(REPLICA_TEXT, sub_id="a")}
    system.run()
    handles["b"] = system.peer("m2").subscribe(
        REPLICA_TEXT + ' by publish as channel "seen"', sub_id="b"
    )
    system.run()
    (existing,) = handles["b"].plan.find_all(EXISTING)
    assert existing.params["provider_peer"] == "m1", "b must read m1's replica"
    network = system.network
    network.trace_enabled = network.record_events = True
    documents: list[str] = []
    unpublish = system.kadop.unpublish

    def recording_unpublish(doc_id: str) -> bool:
        removed = unpublish(doc_id)
        if removed:
            documents.append(f"unpublish {doc_id}")
        return removed

    system.kadop.unpublish = recording_unpublish
    recording = []
    for sub_id in order:
        sent, logged = len(network.trace), len(network.event_log)
        documents.clear()
        handles[sub_id].cancel()
        system.run()
        recording.append({
            "cancel": sub_id,
            "sent": [
                f"{m.source}->{m.destination} {m.kind} {to_xml(m.payload)}"
                for m in network.trace[sent:]
            ],
            "delivered": [line for line in network.event_log[logged:] if " deliver " in line],
            "documents": list(documents),
        })
    if len(order) == len(handles):
        assert len(system.resources) == 0
    return recording


def cancel_recordings() -> dict:
    return {
        f"{system}/{order}": record_cancels(options, RECORDED_ORDERS[order])
        for system, options in RECORDED_SYSTEMS.items()
        for order in RECORDED_ORDERS
    }


class TestTeardownOrder:
    def test_cancel_reproduces_the_frozen_recording(self):
        """Every send, delivery and unpublication of a cancel, in the order the
        per-task undo lists and holder strings produced them."""
        frozen = json.loads(CANCEL_RECORDING_PATH.read_text())["cases"]
        assert cancel_recordings() == frozen


class TestEndOfChannel:
    def test_a_torn_down_channel_sends_one_eos_per_subscriber(self):
        """Closing a published stream sends its subscribers ``channel.eos``;
        unpublishing the channel afterwards must not send it again."""
        from test_recovery import build_system, subscription_text

        system, sources, monitor = build_system()
        handle = monitor.subscribe(
            subscription_text(sources) + ' by publish as channel "X"', sub_id="chaos"
        )
        reader = system.add_peer("reader")
        reader.net.subscribe_channel("monitor", "X")
        system.run()
        network = system.network
        network.trace_enabled = True
        handle.cancel()
        system.run()
        eos = Counter((m.source, m.destination) for m in network.trace if m.kind == "channel.eos")
        assert ("monitor", "reader") in eos and len(eos) >= 4
        assert set(eos.values()) == {1}, eos
