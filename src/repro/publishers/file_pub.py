"""File and Web-page publishers.

``FilePublisher`` appends every result to an XML log document (optionally
persisted to disk); ``WebPagePublisher`` maintains, in memory, a small XHTML
page whose body lists the most recent results, newest first.
"""

from __future__ import annotations

from pathlib import Path

from repro.publishers.base import Publisher
from repro.xmlmodel.serialize import pretty_xml
from repro.xmlmodel.tree import Element

_OPENING, _CLOSING = b"<results>\n", b"</results>\n"


class FilePublisher(Publisher):
    """Collects results into an XML document, optionally written to disk.

    The file is a well-formed ``<results>`` document after every result:
    each result is written once, over the closing tag, which follows it.
    """

    mode = "file"

    def __init__(self, path: str | Path | None = None) -> None:
        super().__init__()
        self.path = Path(path) if path is not None else None
        self.document = Element("results")
        if self.path is not None:
            self.path.write_bytes(_OPENING + _CLOSING)
            self._end = len(_OPENING)  # where the closing tag starts

    def publish(self, item: Element) -> None:
        item = item.copy()
        self.document.append(item)
        if self.path is not None:
            data = pretty_xml(item).encode("utf-8")
            with self.path.open("r+b") as file:
                file.seek(self._end)
                file.write(data + _CLOSING)
            self._end += len(data)


class WebPagePublisher(Publisher):
    """Maintains an XHTML page listing the latest results (:meth:`page`)."""

    mode = "webpage"

    def __init__(self, title: str, max_entries: int = 20) -> None:
        super().__init__()
        self.title = title
        self.max_entries = max_entries
        self._entries: list[Element] = []

    def publish(self, item: Element) -> None:
        self._entries.insert(0, item.copy())
        del self._entries[self.max_entries :]

    def page(self) -> Element:
        """The current XHTML page."""
        body = Element("body", children=[Element("h1", text=self.title)])
        items = Element("ul")
        for entry in self._entries:
            items.append(Element("li", children=[entry.copy()]))
        body.append(items)
        return Element("html", children=[
            Element("head", children=[Element("title", text=self.title)]),
            body,
        ])
