"""End-to-end tests: subscription manager, deployment, the meteo scenario."""

import pytest

from repro.algebra.plan import EXISTING, FILTER, JOIN
from repro.monitor import P2PMSystem
from repro.workloads import EdosNetwork, MeteoScenario, RSSFeedSimulator
from repro.xmlmodel import parse_xml, to_xml


class TestMeteoScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        scenario = MeteoScenario(threshold=10.0, slow_fraction=0.2, seed=11)
        scenario.deploy()
        scenario.run_traffic(300)
        return scenario

    def test_incidents_match_reference_semantics(self, scenario):
        expected = scenario.expected_incidents(scenario.calls)
        incidents = scenario.incidents()
        assert len(incidents) == len(expected)
        assert incidents, "the workload should produce at least one slow call"

    def test_incident_shape_follows_template(self, scenario):
        incident = scenario.incidents()[0]
        assert incident.tag == "incident"
        assert incident.attrib["type"] == "slowAnswer"
        assert incident.find("client").text in ("a.com", "b.com")
        assert incident.find("tstamp").text

    def test_plan_is_distributed_over_the_peers(self, scenario):
        task = scenario.task
        assert set(task.peers_involved()) >= {"a.com", "b.com", "meteo.com"}
        # communications crossed peer boundaries through channels
        assert task.channels_created
        assert scenario.system.network.stats.total_messages > 0

    def test_alertqos_channel_published_at_monitor(self, scenario):
        monitor = scenario.monitor
        assert monitor.net.channels.publishes("alertQoS")

    def test_filters_are_placed_at_the_sources(self, scenario):
        plan = scenario.task.plan
        for node in plan.find_all(FILTER):
            assert node.placement in ("a.com", "b.com", "meteo.com")
        assert plan.find_all(JOIN)[0].placement == "meteo.com"

    def test_stream_descriptions_published(self, scenario):
        descriptions = scenario.system.stream_db.all_stream_descriptions()
        operators = {d.operator for d in descriptions}
        assert {"outCOM", "inCOM", "Filter", "Union", "Join"} <= operators


class TestSubscriptionManagement:
    def test_subscription_database_records(self):
        scenario = MeteoScenario(seed=3)
        scenario.deploy()
        database = scenario.monitor.manager.database
        assert len(database) == 1
        assert "meteo-qos" in database
        assert database.get("meteo-qos").status == "deployed"

    def test_local_mode_subscription(self):
        system = P2PMSystem(seed=5)
        system.add_peer("feeds.example")
        monitor = system.add_peer("watcher.example")
        feed = RSSFeedSimulator("http://feeds.example/rss", seed=5)
        system.peer("feeds.example").register_feed(feed.feed_url, feed.snapshot)
        task = monitor.subscribe(
            'for $x in rssFeed(<p>feeds.example</p>) where $x.kind = "add" '
            "return <fresh>{$x.entry}</fresh>",
            max_results=256,
        )
        system.run()
        alerter = system.peer("feeds.example").alerter("rssFeed")
        alerter.poll()
        for _ in range(5):
            feed.tick()
            alerter.poll()
        system.run()
        assert task.publisher is None
        assert all(item.tag == "fresh" for item in task.results())
        assert task.results(), "feed churn should produce additions"

    def test_email_publication(self):
        scenario = MeteoScenario(seed=9)
        text = scenario.subscription_text().replace(
            'by publish as channel "alertQoS"', 'by email "ops@example.org"'
        )
        task = scenario.monitor.subscribe(text, sub_id="mail-alerts", max_results=1024)
        scenario.system.run()
        scenario.run_traffic(200)
        outbox = task.publisher.outbox
        assert len(outbox) == len(task.results())
        assert outbox, "slow calls should have been mailed"

    def test_webpage_publication_lists_the_latest_results(self):
        scenario = MeteoScenario(seed=9)
        text = scenario.subscription_text().replace(
            'by publish as channel "alertQoS"', 'by webpage "QoS incidents"'
        )
        task = scenario.monitor.subscribe(text, sub_id="page-alerts", max_results=1024)
        scenario.system.run()
        scenario.run_traffic(400)
        page = task.publisher.page()
        assert page.find("head").find("title").text == "QoS incidents"
        entries = [to_xml(entry.children[0]) for entry in page.find("body").find("ul").children]
        newest_first = [to_xml(item) for item in reversed(task.results())]
        assert len(newest_first) > task.publisher.max_entries
        assert entries == newest_first[: task.publisher.max_entries]

    def test_file_publication_writes_its_target(self, tmp_path):
        path = tmp_path / "incidents.xml"
        scenario = MeteoScenario(seed=9)
        text = scenario.subscription_text().replace(
            'by publish as channel "alertQoS"', f'by file "{path.resolve()}"'
        )
        task = scenario.monitor.subscribe(text, sub_id="file-alerts", max_results=1024)
        scenario.system.run()
        scenario.run_traffic(200)
        assert task.results(), "slow calls should have been written"
        written = parse_xml(path.read_text(encoding="utf-8"))
        assert [to_xml(item) for item in written.children] == [to_xml(item) for item in task.results()]
        task.cancel()
        assert len(parse_xml(path.read_text(encoding="utf-8")).children) == len(task.results())


class TestStreamReuseEndToEnd:
    def test_second_identical_subscription_reuses_streams(self):
        scenario = MeteoScenario(seed=13)
        first = scenario.deploy()
        assert first.reuse_report.nodes_reused == 0
        second = scenario.monitor.subscribe(
            scenario.subscription_text(), sub_id="meteo-qos-2", max_results=10_000
        )
        scenario.system.run()
        report = second.reuse_report
        assert report.nodes_reused > 0
        assert second.plan.count(EXISTING) > 0
        # fewer operators deployed the second time around
        assert second.operator_count < first.operator_count
        # and both tasks keep receiving results
        scenario.run_traffic(150)
        assert len(second.results()) == len(first.results())
        assert len(first.results()) > 0

    def test_overlapping_subscription_reuses_sources_only(self):
        scenario = MeteoScenario(seed=17)
        scenario.deploy()
        other = scenario.monitor.subscribe(
            """
            for $c in outCOM(<p>a.com</p>)
            where $c.callMethod = "GetHumidity"
            return <humidity-call>{$c.callId}</humidity-call>
            by publish as channel "humidity";
            """,
            sub_id="humidity-watch",
        )
        scenario.system.run()
        report = other.reuse_report
        # the outCOM alerter at a.com already exists and is reused
        assert any(kind == "alerter" for kind, _, _ in report.reused)
        assert other.plan.count(EXISTING) >= 1

    def test_reuse_can_be_disabled(self):
        scenario = MeteoScenario(seed=19)
        scenario.deploy()
        second = scenario.monitor.subscribe(
            scenario.subscription_text(), sub_id="no-reuse", reuse=False
        )
        assert second.reuse_report is None
        assert second.plan.count(EXISTING) == 0


class TestEdosMonitoring:
    def test_failed_download_monitoring(self):
        system = P2PMSystem(seed=23)
        edos = EdosNetwork(n_mirrors=2, n_clients=10, failure_rate=0.3, seed=23)
        for mirror in edos.mirrors:
            peer = system.add_peer(mirror)
            peer.add_alerter_hook(
                lambda alerter: edos.attach_alerter(alerter)
                if hasattr(alerter, "observe_call")
                else None
            )
        monitor = system.add_peer("monitor.edos.org")
        task = monitor.subscribe(
            """
            for $c in inCOM(<p>mirror0.edos.org</p> <p>mirror1.edos.org</p>)
            where $c.callMethod = "DownloadPackage" and $c.status = "fault"
            return <failure><mirror>{$c.callee}</mirror><client>{$c.caller}</client></failure>
            by publish as channel "edosFailures";
            """,
            sub_id="edos-failures",
            max_results=4096,
        )
        system.run()
        edos.run(400)
        system.run()
        reference = edos.reference_statistics()
        assert len(task.results()) == reference["failed_downloads"]
        assert task.results(), "with a 30% failure rate there should be failures"
