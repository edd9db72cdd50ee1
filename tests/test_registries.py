"""Pluggable publisher/alerter registries: new kinds without touching deployment."""

import pytest

from repro.alerters import (
    Alerter,
    alerter_functions,
    create_alerter,
    register_alerter,
    unregister_alerter,
)
from repro.monitor import P2PMSystem
from repro.p2pml import SubscriptionBuilder
from repro.publishers import (
    Publisher,
    publisher_modes,
    register_publisher,
    unregister_publisher,
)
from repro.xmlmodel.tree import Element


class TemperatureAlerter(Alerter):
    """A plug-in alerter: emits one alert per recorded reading."""

    kind = "tempSensor"

    def record(self, celsius: float) -> None:
        self.emit_alert(Element("alert", {"celsius": str(celsius), "peer": self.peer_id}))


class WebhookPublisher(Publisher):
    """A plug-in publication mode: collects what would be POSTed."""

    mode = "webhook"

    def __init__(self, url: str) -> None:
        super().__init__()
        self.url = url
        self.posted: list[Element] = []

    def publish(self, item: Element) -> None:
        self.posted.append(item)


@pytest.fixture
def temp_sensor_registration():
    register_alerter("tempSensor")(lambda peer, function: TemperatureAlerter(peer.peer_id))
    yield
    unregister_alerter("tempSensor")


@pytest.fixture
def webhook_registration():
    register_publisher("webhook")(lambda ctx: WebhookPublisher(ctx.params["target"]))
    yield
    unregister_publisher("webhook")


class TestAlerterRegistry:
    def test_builtin_functions_registered(self):
        assert {"inCOM", "outCOM", "rssFeed", "webPage", "axmlRepo", "areRegistered"} <= set(
            alerter_functions()
        )

    def test_unknown_function_lists_known_ones(self):
        system = P2PMSystem(seed=1)
        peer = system.add_peer("p1")
        with pytest.raises(ValueError, match="inCOM"):
            create_alerter(peer, "noSuchAlerter")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_alerter("inCOM")(lambda peer, function: None)

    def test_plugin_alerter_deploys_from_p2pml_text(self, temp_sensor_registration):
        system = P2PMSystem(seed=2)
        sensor_peer = system.add_peer("sensor.example")
        monitor = system.add_peer("monitor.example")
        handle = monitor.subscribe(
            """
            for $t in tempSensor(<p>sensor.example</p>)
            where $t.celsius > 30
            return <heat celsius="{$t.celsius}"/>
            """,
            sub_id="heat-watch",
            max_results=100,
        )
        system.run()
        alerter = sensor_peer.alerter("tempSensor")
        assert isinstance(alerter, TemperatureAlerter)
        for reading in (12.0, 31.5, 48.0, 22.0):
            alerter.record(reading)
        system.run()
        assert [e.attrib["celsius"] for e in handle.results()] == ["31.5", "48.0"]
        handle.cancel()
        assert len(system.resources) == 0


    def test_axml_repository_alerter_reports_each_update(self):
        system = P2PMSystem(seed=4)
        repo_peer = system.add_peer("repo.example")
        monitor = system.add_peer("monitor.example")
        handle = monitor.subscribe(
            'for $d in axmlRepo(<p>repo.example</p>) where $d.kind != "delete" '
            'return <changed kind="{$d.kind}" document="{$d.document}"/>',
            max_results=100,
        )
        system.run()
        repo_peer.repository.store("a.xml", Element("a"))
        repo_peer.repository.store("b.xml", Element("b"))
        repo_peer.repository.store("a.xml", Element("a", text="v2"))
        repo_peer.repository.delete("b.xml")
        system.run()
        assert [(e.attrib["kind"], e.attrib["document"]) for e in handle.results()] == [
            ("insert", "a.xml"), ("insert", "b.xml"), ("replace", "a.xml")
        ]
        handle.cancel()
        assert len(system.resources) == 0


class TestPublisherRegistry:
    def test_builtin_modes_registered(self):
        assert {"channel", "email", "file", "rss", "webpage"} <= set(publisher_modes())

    def test_unknown_mode_raises_with_catalogue(self):
        system = P2PMSystem(seed=3)
        feeds = system.add_peer("feeds.example")
        feeds.register_feed("http://feeds.example/rss", lambda: Element("rss"))
        monitor = system.add_peer("watcher.example")
        ast = (
            SubscriptionBuilder()
            .for_var("x", "rssFeed", "feeds.example")
            .returns("$x")
            .by("carrier-pigeon", "coop@roof")
            .build()
        )
        with pytest.raises(ValueError, match="unknown publication mode"):
            monitor.subscribe(ast)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_publisher("email")(lambda ctx: None)

    def test_plugin_publisher_deploys_and_cancels(
        self, temp_sensor_registration, webhook_registration
    ):
        system = P2PMSystem(seed=4)
        sensor_peer = system.add_peer("sensor.example")
        monitor = system.add_peer("monitor.example")
        handle = monitor.subscribe(
            SubscriptionBuilder()
            .for_var("t", "tempSensor", "sensor.example")
            .where("$t.celsius", ">", 30)
            .returns('<heat celsius="{$t.celsius}"/>')
            .by("webhook", "https://ops.example/hooks/heat"),
            sub_id="heat-hook",
        )
        system.run()
        assert isinstance(handle.publisher, WebhookPublisher)
        assert handle.publisher.url == "https://ops.example/hooks/heat"
        alerter = sensor_peer.alerter("tempSensor")
        alerter.record(35.0)
        system.run()
        assert len(handle.publisher.posted) == 1
        handle.cancel()
        alerter.record(40.0)
        system.run()
        assert len(handle.publisher.posted) == 1
        assert len(system.resources) == 0
