"""RSS publisher: exposes a result stream as an RSS feed."""

from __future__ import annotations

from repro.publishers.base import Publisher
from repro.xmlmodel.tree import Element


class RSSPublisher(Publisher):
    """Maintains, in memory, an RSS document (:meth:`feed`) with one
    ``<item>`` per published result."""

    mode = "rss"

    def __init__(self, title: str, max_items: int = 50) -> None:
        super().__init__()
        self.title = title
        self.max_items = max_items
        self._items: list[Element] = []
        self._sequence = 0

    def publish(self, item: Element) -> None:
        self._sequence += 1
        entry = Element("item", children=[
            Element("guid", text=f"{self.title}-{self._sequence}"),
            Element("title", text=f"{item.tag} #{self._sequence}"),
            Element("description", children=[item.copy()]),
        ])
        self._items.insert(0, entry)
        del self._items[self.max_items :]

    def feed(self) -> Element:
        """The current RSS document."""
        channel = Element("channel", children=[Element("title", text=self.title)])
        for item in self._items:
            channel.append(item.copy())
        return Element("rss", {"version": "2.0"}, [channel])
