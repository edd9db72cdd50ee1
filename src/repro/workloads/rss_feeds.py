"""Evolving RSS feeds with controlled churn (drives the RSS alerter)."""

from __future__ import annotations

import random

from repro.xmlmodel.tree import Element


class RSSFeedSimulator:
    """An RSS feed whose entries are added, removed and edited over time."""

    def __init__(
        self,
        feed_url: str,
        initial_entries: int = 5,
        add_rate: float = 0.6,
        remove_rate: float = 0.2,
        modify_rate: float = 0.3,
        seed: int = 0,
    ) -> None:
        self.feed_url = feed_url
        self.add_rate = add_rate
        self.remove_rate = remove_rate
        self.modify_rate = modify_rate
        self.random = random.Random(seed)
        self._sequence = 0
        self._entries: dict[str, str] = {}
        for _ in range(initial_entries):
            self._add_entry()

    # -- evolution ---------------------------------------------------------------

    def _add_entry(self) -> None:
        self._sequence += 1
        guid = f"entry-{self._sequence}"
        self._entries[guid] = f"headline {self._sequence}"

    def tick(self) -> None:
        """Advance the feed one step: maybe add, remove and/or modify entries."""
        if self.random.random() < self.add_rate:
            self._add_entry()
        if self._entries and self.random.random() < self.remove_rate:
            victim = self.random.choice(sorted(self._entries))
            del self._entries[victim]
        if self._entries and self.random.random() < self.modify_rate:
            target = self.random.choice(sorted(self._entries))
            self._entries[target] = f"{self._entries[target]} (updated)"

    # -- snapshot --------------------------------------------------------------------

    def snapshot(self) -> Element:
        """The current feed as an ``<rss>`` document."""
        channel = Element("channel", children=[Element("title", text=self.feed_url)])
        for guid in sorted(self._entries):
            channel.append(
                Element("item", children=[
                    Element("guid", text=guid),
                    Element("title", text=self._entries[guid]),
                ])
            )
        return Element("rss", {"version": "2.0"}, [channel])
