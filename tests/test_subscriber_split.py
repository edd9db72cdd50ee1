"""``Stream.emit_trusted`` against a frozen copy of its per-burst subscriber split.

``FrozenStream.emit_trusted`` below is the method as it was before a stream
cached its batch / per-item subscriber split: every burst rebuilt the two
lists from the subscribers of the moment it arrived.  It is the reference.
``Stream`` now keeps the split as two tuples that the first burst after a
(un)subscribe builds, and a (un)subscribe replaces rather than edits them.
Generated programs of subscribe, unsubscribe, close, ``emit`` and
``emit_many`` -- with batch subscribers that unsubscribe others or
themselves, subscribe newcomers or close the stream mid-burst -- must leave
identical delivery logs on both.
"""

from __future__ import annotations

from types import MethodType

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import EOS, Stream, StreamClosedError
from repro.xmlmodel.tree import Element


class FrozenStream(Stream):
    def emit_trusted(self, batch: list[Element]) -> None:
        if not batch:
            return
        if self.closed:
            raise StreamClosedError(f"stream {self.qualified_id} is closed")
        self._deliver_many(batch)
        if self.closed:
            raise StreamClosedError(f"stream {self.qualified_id} closed during batch delivery")

    def _deliver_many(self, batch: list[Element]) -> None:
        stats = self.stats
        stats.items += len(batch)
        batch_subscribers = []
        item_subscribers = []
        for subscriber in list(self._subscribers):
            deliver_batch = getattr(subscriber, "batch", None)
            if deliver_batch is None:
                item_subscribers.append(subscriber)
            elif type(subscriber) is MethodType:
                batch_subscribers.append(MethodType(deliver_batch, subscriber.__self__))
            else:
                batch_subscribers.append(deliver_batch)
        for deliver_batch in batch_subscribers:
            deliver_batch(batch)
            if self.closed:
                return
        if item_subscribers:
            for item in batch:
                for subscriber in item_subscribers:
                    subscriber(item)
                if self.closed:
                    return


#: how a subscriber takes a burst: item by item, a ``batch`` attribute on a
#: function, on a bound method's function, or a ``batch`` set to None
KINDS = ("item", "batch", "method", "none")
#: what a subscriber does, once, when it is first called with an item
ACTIONS = (None, "close", "unsubscribe_first", "unsubscribe_last", "unsubscribe_self", "subscribe_new")


class Receiver:
    def __init__(self, name: str, log: list, act) -> None:
        self.name, self.log, self.act = name, log, act

    def receive(self, item) -> None:
        self.log.append((self.name, "EOS" if item is EOS else int(item.attrib["n"])))
        if item is not EOS:
            self.act()

    def receive_many(self, items) -> None:
        self.log.append((self.name, "burst", tuple(int(item.attrib["n"]) for item in items)))
        self.act()


Receiver.receive.batch = Receiver.receive_many  # type: ignore[attr-defined]


def run(stream_cls: type[Stream], program: list[tuple]) -> tuple:
    """Run ``program`` on a fresh ``stream_cls``; returns everything observable."""
    stream = stream_cls("s", "p")
    log: list = []
    handles: list = []
    serial = [0]

    def subscribe(name: str, kind: str, action) -> None:
        fired = [False]
        own: list = []

        def act() -> None:
            if action is None or fired[0]:
                return
            fired[0] = True
            if action == "close":
                stream.close()
            elif action == "unsubscribe_first" and handles:
                handles[0]()
            elif action == "unsubscribe_last" and handles:
                handles[-1]()
            elif action == "unsubscribe_self":
                own[0]()
            elif action == "subscribe_new":
                subscribe(f"{name}'", "item", None)

        if kind == "method":
            callback = Receiver(name, log, act).receive
        else:

            def callback(item) -> None:
                log.append((name, "EOS" if item is EOS else int(item.attrib["n"])))
                if item is not EOS:
                    act()

            if kind == "batch":

                def deliver_batch(items) -> None:
                    log.append((name, "burst", tuple(int(item.attrib["n"]) for item in items)))
                    act()

                callback.batch = deliver_batch  # type: ignore[attr-defined]
            elif kind == "none":
                callback.batch = None  # type: ignore[attr-defined]
        own.append(stream.subscribe(callback))
        handles.append(own[0])

    def items(count: int) -> list[Element]:
        made = [Element("alert", {"n": str(serial[0] + k)}) for k in range(count)]
        serial[0] += count
        return made

    for step, op in enumerate(program):
        if op[0] == "subscribe":
            subscribe(f"s{step}", op[1], op[2])
        elif op[0] == "unsubscribe":
            if handles:
                handles[op[1] % len(handles)]()
        elif op[0] == "close":
            stream.close()
        else:
            try:
                if op[0] == "emit":
                    stream.emit(items(1)[0])
                else:
                    stream.emit_many(items(op[1]))
            except StreamClosedError as error:
                log.append(("raised", str(error)))
    return log, stream.stats.items, stream.subscriber_count


OPS = st.one_of(
    st.tuples(st.just("subscribe"), st.sampled_from(KINDS), st.sampled_from(ACTIONS)),
    st.tuples(st.just("unsubscribe"), st.integers(0, 7)),
    st.tuples(st.just("emit_many"), st.integers(0, 4)),
    st.tuples(st.just("emit")),
    st.tuples(st.just("close")),
)


@settings(max_examples=400, deadline=None)
@given(program=st.lists(OPS, max_size=14))
def test_generated_programs_deliver_as_the_frozen_split(program):
    assert run(Stream, program) == run(FrozenStream, program)


def test_the_programs_reach_every_mid_burst_action():
    """The generator's vocabulary, spelled out once: each action fires from a
    batch subscriber mid-burst, ahead of a per-item one that must not see what
    the action stopped."""
    for action in ACTIONS[1:]:
        for kind in ("batch", "method"):
            program = [
                ("subscribe", "item", None),
                ("subscribe", kind, action),
                ("subscribe", "item", None),
                ("emit_many", 3),
                ("emit_many", 2),
            ]
            log = run(Stream, program)
            assert log == run(FrozenStream, program)
            assert log[0][0][1] == "burst"  # the batch subscriber takes the burst first


def test_a_subscriber_added_mid_burst_waits_for_the_next_burst():
    program = [("subscribe", "batch", "subscribe_new"), ("emit_many", 2), ("emit_many", 1)]
    log, items, subscribers = run(Stream, program)
    assert log == [("s0", "burst", (0, 1)), ("s0", "burst", (2,)), ("s0'", 2)]
    assert items == 3 and subscribers == 2
