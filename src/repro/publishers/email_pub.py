"""E-mail publisher (simulated outbox).

There is no SMTP server in the reproduction environment; sent messages are
collected in an in-memory outbox so that examples and tests can assert on
what would have been mailed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.publishers.base import Publisher
from repro.xmlmodel.serialize import pretty_xml
from repro.xmlmodel.tree import Element


@dataclass(frozen=True)
class Email:
    recipient: str
    subject: str
    body: str


class EmailPublisher(Publisher):
    """Sends one e-mail per result item to a fixed recipient."""

    mode = "email"

    def __init__(self, recipient: str) -> None:
        super().__init__()
        self.recipient = recipient
        self.outbox: list[Email] = []

    def publish(self, item: Element) -> None:
        subject = f"[P2PM] {item.tag}"
        if "type" in item.attrib:
            subject = f"{subject}: {item.attrib['type']}"
        self.outbox.append(Email(self.recipient, subject, pretty_xml(item)))
