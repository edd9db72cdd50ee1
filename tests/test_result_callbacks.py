"""The ``on_result`` contract: the valve calls a result callback itself.

A callback registered with ``SubscriptionHandle.on_result`` is one of the
delivery valve's subscribers, with no wrapper frame around it.  The valve's
end (a cancel, or its source ending) never reaches it, while the result
buffer, the publisher and a plain ``valve.subscribe`` subscriber still get
EOS.  A paused subscription delivers nothing to it until resumed.
"""

import gc
import sys

import repro.workloads.chaos_feed  # noqa: F401 - registers the chaosFeed alerter
from repro.monitor import P2PMSystem
from repro.streams import EOS
from repro.workloads.chaos_feed import CHAOS_FUNCTION
from repro.xmlmodel.tree import Element

SEEN = (
    'for $x in chaosFeed(<p>src</p>) where $x.kind = "chaos" and $x.n >= 1 '
    "return <seen><n>{$x.n}</n></seen>"
)


def one_peer(**options):
    """One peer subscribed to its own chaosFeed: the system, the alerter, the
    handle and the list its ``on_result`` callback appends to."""
    system = P2PMSystem(seed=0)
    peer = system.add_peer("src")
    alerter = peer.get_or_create_alerter(CHAOS_FUNCTION)
    handle = peer.subscribe(SEEN, sub_id="s", **options)
    seen: list = []
    handle.on_result(seen.append)
    system.run()
    return system, alerter, handle, seen


def numbers(items) -> list[int]:
    return [int(item.find("n").text) for item in items]


def test_a_cancel_never_reaches_a_callback():
    system, alerter, handle, seen = one_peer(max_results=4)
    ended = []
    handle.delivery_stream.subscribe(lambda item: ended.append(item is EOS))
    alerter.emit_numbered(1)
    system.run()
    assert handle.cancel()
    system.run()
    assert numbers(seen) == [1] and EOS not in seen
    assert ended == [False, True]  # a plain valve subscriber still gets EOS
    assert handle.delivery_stream.closed and handle._record.results.closed


def test_the_end_of_the_source_never_reaches_a_callback():
    system, alerter, handle, seen = one_peer(max_results=4)
    alerter.output.emit_many([Element("alert", {"kind": "chaos", "source": "src", "n": str(n)}) for n in (1, 2)])
    system.run()
    handle.output_stream.close()
    assert numbers(seen) == [1, 2] and EOS not in seen
    assert handle.delivery_stream.closed and handle._record.results.closed


def test_a_paused_subscription_delivers_nothing_until_resumed():
    system, alerter, handle, seen = one_peer()
    handle.pause()
    for n in (1, 2, 3):
        alerter.emit_numbered(n)
    system.run()
    assert seen == [] and handle.delivery_stream.pending_count == 3
    handle.resume()
    assert numbers(seen) == [1, 2, 3] and handle.stats()["items_delivered"] == 3


def test_an_unsubscribed_callback_is_forgotten():
    system, alerter, handle, seen = one_peer()
    later: list = []
    remove = handle.on_result(later.append)
    alerter.emit_numbered(1)
    system.run()
    remove()
    remove()  # idempotent
    alerter.emit_numbered(2)
    system.run()
    assert numbers(seen) == [1, 2] and numbers(later) == [1]
    assert later.append not in handle.delivery_stream._items_only


def test_a_delivery_enters_no_handle_frame():
    system, alerter, handle, seen = one_peer()
    alerter.emit_numbered(1)  # warm every lazily built path
    system.run()
    entered: set[str] = set()

    def record(frame, event, argument) -> None:
        if event == "call":
            entered.add(frame.f_code.co_filename.replace("\\", "/"))

    burst = [Element("alert", {"kind": "chaos", "source": "src", "n": str(n)}) for n in (2, 3)]
    gc.collect()
    gc.disable()
    sys.setprofile(record)
    try:
        alerter.emit_numbered(4)
        alerter.output.emit_many(burst)
        system.run()
    finally:
        sys.setprofile(None)
        gc.enable()
    assert numbers(seen) == [1, 4, 2, 3]
    assert any(path.endswith("monitor/lifecycle.py") for path in entered)  # the valve ran
    assert not [path for path in entered if path.endswith("monitor/handle.py")]
