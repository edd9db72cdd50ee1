"""Tests for the publishers."""

from repro.net import Peer, SimNetwork
from repro.publishers import (
    ChannelPublisher,
    EmailPublisher,
    FilePublisher,
    RSSPublisher,
    WebPagePublisher,
    file_pub,
)
from repro.streams import Stream, collect
from repro.xmlmodel import Element, parse_xml, pretty_xml


def incident(n: int) -> Element:
    return Element("incident", {"type": "slowAnswer", "n": str(n)})


class TestChannelPublisher:
    def test_republishes_on_a_channel(self):
        network = SimNetwork(seed=1)
        publisher_peer = Peer("pub.com", network)
        subscriber_peer = Peer("sub.com", network)
        results = Stream("results", "pub.com")
        publisher = ChannelPublisher(publisher_peer, "alertQoS")
        publisher.connect(results)
        proxy = subscriber_peer.subscribe_channel("pub.com", "alertQoS")
        network.run()
        sink = collect(proxy)
        results.emit(incident(1))
        network.run()
        assert len(sink) == 1
        assert publisher.items_published == 1

    def test_add_subscriber_and_close(self):
        network = SimNetwork(seed=1)
        publisher_peer = Peer("pub.com", network)
        Peer("client.com", network)
        results = Stream("results", "pub.com")
        publisher = ChannelPublisher(publisher_peer, "X", ["client.com"])
        publisher.connect(results)
        assert "client.com" in publisher.channel.subscribers
        # the channel forwards off the connected stream: no relay of its own
        assert publisher.channel.stream is results
        results.close()
        assert publisher.closed
        assert publisher.items_published == 0


class TestFilePublisher:
    def test_in_memory_document(self):
        results = Stream("r")
        publisher = FilePublisher()
        publisher.connect(results)
        results.emit(incident(1))
        results.emit(incident(2))
        assert len(publisher.document.children) == 2

    def test_writes_to_disk(self, tmp_path):
        path = tmp_path / "results.xml"
        results = Stream("r")
        publisher = FilePublisher(path)
        publisher.connect(results)
        results.emit(incident(1))
        results.close()
        reloaded = parse_xml(path.read_text())
        assert len(reloaded.children) == 1


class TestFileWrites:
    def test_a_result_is_serialised_once_whatever_came_before(self, tmp_path, monkeypatch):
        serialised: list[int] = []

        def counting_pretty_xml(node):
            text = pretty_xml(node)
            serialised.append(len(text))
            return text

        monkeypatch.setattr(file_pub, "pretty_xml", counting_pretty_xml)
        path = tmp_path / "results.xml"
        results = Stream("r")
        FilePublisher(path).connect(results)
        for n in range(5):
            results.emit(incident(n))
            # well-formed after every result, every result in order
            assert [item.attrib["n"] for item in parse_xml(path.read_text()).children] == [
                str(k) for k in range(n + 1)
            ]
        assert serialised == [len(pretty_xml(incident(0)))] * 5


class TestWebPagePublisher:
    def test_page_lists_latest_first(self):
        results = Stream("r")
        publisher = WebPagePublisher("QoS incidents", max_entries=2)
        publisher.connect(results)
        for n in range(3):
            results.emit(incident(n))
        page = publisher.page()
        items = page.find("body").find("ul").children
        assert len(items) == 2  # bounded
        assert items[0].find("incident").attrib["n"] == "2"  # newest first


class TestRSSPublisher:
    def test_feed_structure(self):
        results = Stream("r")
        publisher = RSSPublisher("alerts", max_items=10)
        publisher.connect(results)
        results.emit(incident(1))
        results.emit(incident(2))
        feed = publisher.feed()
        assert feed.tag == "rss"
        items = feed.find("channel").findall("item")
        assert len(items) == 2
        assert items[0].find("guid").text == "alerts-2"

    def test_bounded_items(self):
        results = Stream("r")
        publisher = RSSPublisher("alerts", max_items=3)
        publisher.connect(results)
        for n in range(10):
            results.emit(incident(n))
        assert len(publisher.feed().find("channel").findall("item")) == 3


class TestEmailPublisher:
    def test_outbox(self):
        results = Stream("r")
        publisher = EmailPublisher("ops@example.org")
        publisher.connect(results)
        results.emit(incident(1))
        assert len(publisher.outbox) == 1
        email = publisher.outbox[0]
        assert email.recipient == "ops@example.org"
        assert "incident" in email.subject
        assert "slowAnswer" in email.subject
        assert "slowAnswer" in email.body
