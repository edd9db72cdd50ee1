"""Tests for the push-based Stream abstraction."""

import pytest

from repro.streams import EOS, Stream, StreamClosedError, collect, is_eos
from repro.xmlmodel import Element


class TestEOS:
    def test_singleton(self):
        from repro.streams.item import EndOfStream

        assert EndOfStream() is EOS
        assert is_eos(EOS)
        assert not is_eos(Element("a"))
        assert repr(EOS) == "EOS"


class TestStream:
    def test_qualified_id(self):
        assert Stream("s1", "p1").qualified_id == "s1@p1"
        assert Stream("s1").qualified_id == "s1@local"

    def test_emit_delivers_to_all_subscribers(self):
        stream = Stream("s", "p")
        seen_a, seen_b = [], []
        stream.subscribe(seen_a.append)
        stream.subscribe(seen_b.append)
        item = Element("alert")
        stream.emit(item)
        assert seen_a == [item]
        assert seen_b == [item]

    def test_emit_rejects_non_element(self):
        with pytest.raises(TypeError):
            Stream("s").emit("not xml")  # type: ignore[arg-type]

    def test_close_sends_eos_and_blocks_emit(self):
        stream = Stream("s")
        seen = []
        stream.subscribe(seen.append)
        stream.close()
        assert seen == [EOS]
        assert stream.closed
        with pytest.raises(StreamClosedError):
            stream.emit(Element("a"))

    def test_double_close_is_idempotent(self):
        stream = Stream("s")
        seen = []
        stream.subscribe(seen.append)
        stream.close()
        stream.close()
        assert seen == [EOS]

    def test_unsubscribe(self):
        stream = Stream("s")
        seen = []
        unsubscribe = stream.subscribe(seen.append)
        stream.emit(Element("one"))
        unsubscribe()
        unsubscribe()  # second call is a no-op
        stream.emit(Element("two"))
        assert len(seen) == 1
        assert stream.subscriber_count == 0

    def test_stats_counting(self):
        stream = Stream("s")
        stream.emit(Element("a", {"k": "v"}))
        stream.emit(Element("b"))
        assert stream.stats.items == 2

    def test_history_kept_only_when_requested(self):
        plain = Stream("s")
        plain.emit(Element("a"))
        assert plain.history == []
        hist = Stream("s", keep_history=True)
        hist.emit(Element("a"))
        assert len(hist.history) == 1

    def test_emit_many(self):
        stream = Stream("s")
        seen = collect(stream)
        stream.emit_many([Element("a"), Element("b"), Element("c")])
        assert [e.tag for e in seen] == ["a", "b", "c"]

    def test_emit_many_on_closed_stream_raises(self):
        stream = Stream("s")
        stream.close()
        with pytest.raises(StreamClosedError):
            stream.emit_many([Element("a")])

    def test_emit_many_stops_when_subscriber_closes_mid_batch(self):
        """Nothing may be delivered after the EOS marker a mid-batch close sends."""
        stream = Stream("s")
        seen = []

        def closer(item):
            seen.append(item)
            if not is_eos(item) and item.tag == "a":
                stream.close()

        stream.subscribe(closer)
        with pytest.raises(StreamClosedError):
            stream.emit_many([Element("a"), Element("b"), Element("c")])
        # the close's EOS is the last thing the subscriber saw
        assert [("EOS" if is_eos(item) else item.tag) for item in seen] == ["a", "EOS"]

    def test_emit_many_mid_batch_close_matches_per_item_fanout(self):
        """Every subscriber still receives the item that triggered the close."""

        def build(emitter):
            stream = Stream("s")
            closer_seen, other_seen = [], []

            def closer(item):
                closer_seen.append(item)
                if not is_eos(item) and item.tag == "a":
                    stream.close()

            stream.subscribe(closer)
            stream.subscribe(lambda item: other_seen.append(item))
            with pytest.raises(StreamClosedError):
                emitter(stream, [Element("a"), Element("b")])
            return (
                [("EOS" if is_eos(i) else i.tag) for i in closer_seen],
                [("EOS" if is_eos(i) else i.tag) for i in other_seen],
            )

        def per_item(stream, items):
            for item in items:
                stream.emit(item)

        assert build(per_item) == build(lambda s, items: s.emit_many(items))

    def test_emit_many_batch_subscribers_are_batch_atomic(self):
        """Pin the documented contract: a batch subscriber consumes its whole
        burst in one call, so a close it performs takes effect only after it
        returns — later subscribers then receive nothing."""
        stream = Stream("s")
        batch_seen = []
        item_seen = []

        def plain(item):  # close() still routes EOS through the raw callback
            batch_seen.append("EOS" if is_eos(item) else f"item:{item.tag}")

        def batch_handler(items):
            for item in items:
                batch_seen.append(item.tag)
                if item.tag == "a":
                    stream.close()

        plain.batch = batch_handler
        stream.subscribe(plain)
        stream.subscribe(lambda item: item_seen.append(item))
        with pytest.raises(StreamClosedError):
            stream.emit_many([Element("a"), Element("b")])
        # atomic: the handler finishes its burst despite the close (whose
        # EOS fires through the raw callback mid-handler)
        assert batch_seen == ["a", "EOS", "b"]
        assert [("EOS" if is_eos(i) else i.tag) for i in item_seen] == ["EOS"]

    def test_push_routes_items_and_eos(self):
        upstream = Stream("up")
        downstream = Stream("down")
        upstream.subscribe(downstream.push)
        seen = collect(downstream)
        upstream.emit(Element("x"))
        upstream.close()
        assert [e.tag for e in seen] == ["x"]
        assert downstream.closed

    def test_collect_ignores_eos(self):
        stream = Stream("s")
        seen = collect(stream)
        stream.emit(Element("a"))
        stream.close()
        assert len(seen) == 1

    def test_repr_mentions_state(self):
        stream = Stream("s", "p")
        assert "open" in repr(stream)
        stream.close()
        assert "closed" in repr(stream)
