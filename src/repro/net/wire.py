"""Wire encoding of simulator messages for cross-process shard boundaries.

The sharded runtime (:mod:`repro.net.shard`) moves messages between worker
processes over :mod:`multiprocessing` pipes.  Pickling
:class:`~repro.xmlmodel.tree.Element` instances directly would pay one
reduce call and one reconstructor call per node (parent links are weak and
never cross: ``Element.__reduce__`` rebuilds them), so payloads are
flattened to plain nested tuples first:
``(tag, attrib-or-None, text, children-or-None)``.

Channel fan-out deliberately shares one payload Element across every
subscriber of an item (see PR 4's batched fan-out), so a boundary batch
encodes each distinct payload **once** and references it by index from every
message that carries it.  Decoding restores the sharing: subscribers in the
receiving shard see one payload object per item, exactly like same-process
subscribers do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.xmlmodel.tree import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.simnet import Message

#: A flattened Element: (tag, attrib or None, text, children or None).
WireElement = tuple[str, dict | None, str | None, list | None]

#: A flattened Message referencing a payload by batch index:
#: (source, destination, kind, payload_index, size, sent_at, deliver_at).
WireMessage = tuple[str, str, str, int, int, float, float]


def encode_element(element: Element) -> WireElement:
    """Flatten an Element tree to nested tuples (no parent links, no caches)."""
    children = element.children
    return (
        element.tag,
        element.attrib or None,
        element.text,
        [encode_element(child) for child in children] if children else None,
    )


def decode_element(data: WireElement) -> Element:
    """Rebuild an Element tree from :func:`encode_element` output."""
    tag, attrib, text, children = data
    return Element.fast_new(
        tag,
        dict(attrib) if attrib else {},
        [decode_element(child) for child in children] if children else [],
        text=text,
    )


def encode_batch(messages: list["Message"]) -> tuple[list[WireElement], list[WireMessage]]:
    """Encode a boundary batch, sharing each distinct payload once.

    Payload identity is object identity (``id``), which is exactly the
    sharing the channel layer produces: one Element per published item, many
    messages pointing at it.  The id-keyed memo is only valid while the
    messages (and with them the payloads) are referenced, which holds for
    the duration of this call.
    """
    memo: dict[int, int] = {}
    payloads: list[WireElement] = []
    rows: list[WireMessage] = []
    for message in messages:
        payload = message.payload
        index = memo.get(id(payload))
        if index is None:
            index = len(payloads)
            memo[id(payload)] = index
            payloads.append(encode_element(payload))
        rows.append(
            (
                message.source,
                message.destination,
                message.kind,
                index,
                message.size,
                message.sent_at,
                message.deliver_at,
            )
        )
    return payloads, rows


def decode_batch(
    batch: tuple[list[WireElement], list[WireMessage]],
) -> list["Message"]:
    """Decode a boundary batch, restoring payload sharing within the batch."""
    from repro.net.simnet import Message

    wire_payloads, rows = batch
    payloads = [decode_element(data) for data in wire_payloads]
    return [
        Message(source, destination, kind, payloads[index], size, sent_at, deliver_at)
        for source, destination, kind, index, size, sent_at, deliver_at in rows
    ]


__all__ = [
    "WireElement",
    "WireMessage",
    "encode_element",
    "decode_element",
    "encode_batch",
    "decode_batch",
]
