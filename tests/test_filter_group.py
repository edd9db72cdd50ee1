"""The shared filter under the compiled pipelines: one FilterGroup per stream.

Group level (generated): whatever is joined, left, emitted or burst, every
member receives exactly what the NaiveFilter oracle says its subscription
matches, in registration order, batched exactly as item by item -- also
relative to a plain subscriber of the same stream.  System level: cancelling
from inside a dispatch, the EOS cascade, lazy ActiveXML materialisation
through the peer's current registry, no leak after cancel-all, and a
subscription that does not match costs no call.
"""

import gc
import sys
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import CompiledPlanCache, CompileStats, MaterializedTable, PlanCompiler
from repro.filtering import ComputedCondition, FilterSubscription, NaiveFilter, SimpleCondition
from repro.monitor import P2PMSystem
from repro.streams import EOS, Stream
from repro.streams.item import is_eos
from repro.workloads.chaos_feed import CHAOS_FUNCTION
from repro.xmlmodel import Element, XPath
from repro.xmlmodel.axml import ServiceRegistry, make_service_call

# -- generated subscriptions, items and scripts ----------------------------------

_names = st.sampled_from(["a", "b", "c"])
_values = st.sampled_from(["1", "2", "3", "x"])
_ops = st.sampled_from(["=", "!=", "<", ">="])
_paths = st.sampled_from(["//u", "//u/v", "/item/u", "//w", "/item//v"])


@st.composite
def _subscriptions(draw):
    simple = [
        SimpleCondition(draw(_names), draw(_ops), draw(_values))
        for _ in range(draw(st.integers(0, 2)))
    ]
    queries = [XPath.compile(draw(_paths)) for _ in range(draw(st.integers(0, 2)))]
    computed = []
    if draw(st.booleans()):
        computed.append(
            ComputedCondition(((1, "a"), (-1, "b")), draw(_ops), draw(st.integers(-1, 1)))
        )
    return simple, queries, computed


@st.composite
def _items(draw):
    item = Element("item", draw(st.dictionaries(_names, _values, max_size=3)))
    structure = draw(st.sampled_from(["", "u", "uv", "w"]))
    if structure == "u":
        item.append(Element("u"))
    elif structure == "uv":
        item.append(Element("u", children=[Element("v")]))
    elif structure == "w":
        item.append(Element("w"))
    return item


_steps = st.one_of(
    st.tuples(st.just("join"), st.integers(0, 4)),
    st.tuples(st.just("leave"), st.integers(0, 9)),
    st.tuples(st.just("tap"), st.none()),
    st.tuples(st.just("emit"), _items()),
    st.tuples(st.just("burst"), st.lists(_items(), min_size=1, max_size=4)),
)


def _compiler() -> PlanCompiler:
    return PlanCompiler(MaterializedTable(), CompiledPlanCache(), CompileStats())


def _member(log: list, name: str):
    """A continuation as ``CompiledPipeline.make_entry`` builds them."""

    def deliver(item) -> None:
        log.append((name, item))

    def deliver_batch(items, memo) -> None:
        assert isinstance(memo, dict)
        log.extend((name, item) for item in items)

    deliver.batch = deliver_batch
    return deliver


@settings(max_examples=150, deadline=None)
@given(
    specs=st.lists(_subscriptions(), min_size=1, max_size=5),
    script=st.lists(_steps, min_size=1, max_size=14),
)
def test_group_dispatch_follows_the_oracle_in_registration_order(specs, script):
    subscriptions = [FilterSubscription(f"sig{i}", *spec) for i, spec in enumerate(specs)]
    naive = NaiveFilter(subscriptions)
    stream = Stream("src")
    compiler = _compiler()
    host = SimpleNamespace(service_registry=None)
    log: list = []
    members: list = []  # live (name, signature, leave), in registration order
    slots: list = []  # the stream's subscribers in order: "group" or a tap's name
    joined = 0

    def expected_group(items) -> list:
        # pipeline-major: a member's survivors, then the next member's
        matched = [set(naive.process(item).matched) for item in items]
        return [
            (name, item)
            for name, signature, _ in members
            for item, hit in zip(items, matched)
            if signature in hit
        ]

    for verb, argument in script:
        if verb == "join":
            signature = f"sig{argument % len(subscriptions)}"
            if not members:
                slots.append("group")
            name = f"m{joined}"
            joined += 1
            leave = compiler.filter_group(stream, host).join(
                signature, subscriptions[argument % len(subscriptions)], _member(log, name)
            )
            members.append((name, signature, leave))
        elif verb == "leave" and members:
            members.pop(argument % len(members))[2]()
            if not members:
                slots.remove("group")
        elif verb == "tap":
            name = f"tap{len(slots)}"
            stream.subscribe(lambda item, name=name: log.append((name, item)))
            slots.append(name)
        elif verb == "emit":
            stream.emit(argument)
            expected = []
            for slot in slots:
                expected += expected_group([argument]) if slot == "group" else [(slot, argument)]
            assert log == expected
        elif verb == "burst":
            stream.emit_many(argument)
            # Stream.emit_many: batch subscribers first, then the others item-major
            taps = [slot for slot in slots if slot != "group"]
            expected = expected_group(argument) if "group" in slots else []
            expected += [(tap, item) for item in argument for tap in taps]
            assert log == expected
        log.clear()
        assert (stream in compiler.groups) == bool(members)
        assert stream.subscriber_count == len(slots)

    stream.close()
    assert [entry for entry in log if not entry[0].startswith("tap")] == [
        (name, EOS) for name, _, _ in members
    ]


def test_leave_then_rejoin_of_the_last_twin_of_a_signature():
    stream = Stream("src")
    compiler = _compiler()
    host = SimpleNamespace(service_registry=None)
    log: list = []
    wanted = FilterSubscription("x", [SimpleCondition("a", "=", "1")])
    other = FilterSubscription("y", [SimpleCondition("a", "=", "2")])
    item = Element("item", {"a": "1"})

    keep = compiler.filter_group(stream, host).join("other", other, _member(log, "other"))
    group = compiler.groups[stream]
    first = group.join("wanted", wanted, _member(log, "first"))
    twin = group.join("wanted", wanted, _member(log, "twin"))
    assert len(group.index) == 2  # twins share one index entry
    first()
    first()  # idempotent
    stream.emit(item)
    assert log == [("twin", item)]
    twin()
    assert len(group.index) == 1
    stream.emit(item)
    assert log == [("twin", item)]
    again = group.join("wanted", wanted, _member(log, "again"))
    stream.emit(item)
    assert log[1:] == [("again", item)]
    # the last member takes the group with it; a later join starts a new one
    keep()
    assert compiler.groups[stream] is group
    again()
    assert compiler.groups == {} and stream.subscriber_count == 0
    compiler.filter_group(stream, host).join("wanted", wanted, _member(log, "fresh"))
    assert compiler.groups[stream] is not group
    stream.emit(item)
    assert log[-1] == ("fresh", item)


# -- through the deployed system -----------------------------------------------------


def _system():
    system = P2PMSystem(seed=1)
    return system, system.add_peer("solo")


def _subscribe(peer, sub_id: str, where: str, template: str = "<seen><n>{$x.n}</n></seen>"):
    # reuse off: every subscription deploys its own FILTER-headed pipeline
    handle = peer.subscribe(
        f"for $x in {CHAOS_FUNCTION}(<p>solo</p>) where {where} return {template}",
        sub_id=sub_id,
        reuse=False,
    )
    got: list[str] = []
    handle.on_result(lambda item: got.append(item.children[0].text))
    return handle, got


def _alert(n: int, kind: str = "chaos", children=()) -> Element:
    return Element("alert", {"kind": kind, "source": "solo", "n": str(n)}, list(children))


def test_a_callback_may_cancel_itself_or_a_later_member_mid_dispatch():
    system, peer = _system()
    handles = {}
    got = {}
    for sub_id, where in [("a", '$x.kind = "chaos"'), ("b", '$x.kind = "chaos"'),
                          ("c", '$x.kind = "chaos" and $x.n >= 1'), ("d", '$x.kind = "chaos"')]:
        handles[sub_id], got[sub_id] = _subscribe(peer, sub_id, where)
    system.run()

    def cancel_a_and_c(item) -> None:
        handles["a"].cancel()
        handles["c"].cancel()

    handles["a"].on_result(cancel_a_and_c)
    alerter = peer.alerter(CHAOS_FUNCTION)
    alerter.emit_numbered(1)  # a delivers, then a and c are gone: b and d still get it
    assert (got["a"], got["b"], got["c"], got["d"]) == (["1"], ["1"], [], ["1"])
    handles["b"].on_result(lambda item: handles["d"].cancel())
    alerter.output.emit_many([_alert(2), _alert(3)])  # b's batch runs first and cancels d
    assert (got["a"], got["b"], got["c"], got["d"]) == (["1"], ["1", "2", "3"], [], ["1"])
    assert [p.sub_id for p in system.compiled_pipelines()] == ["b"]


def test_eos_closes_every_members_boundaries():
    system, peer = _system()
    for index in range(4):
        _subscribe(peer, f"q{index}", f'$x.kind = "chaos" and $x.n >= {index % 2}')
    system.run()
    pipelines = system.compiled_pipelines()
    assert len(pipelines) == 4
    peer.alerter(CHAOS_FUNCTION).output.close()
    assert all(b.stream.closed for p in pipelines for b in p.boundaries)


def test_axml_is_materialised_lazily_once_per_item_through_the_current_registry():
    system, peer = _system()
    _, plain = _subscribe(peer, "plain", '$x.kind = "chaos"')
    _, blob_a = _subscribe(peer, "blob-a", '$x.kind = "heavy" and $x/alert/data/blob')
    _, blob_b = _subscribe(peer, "blob-b", '$x.kind = "heavy" and $x/alert/data/blob')
    _, other = _subscribe(peer, "other", '$x.kind = "heavy" and $x/alert/data/nothing')
    system.run()
    # swapped after deployment: the group must read the peer's current one
    registry = ServiceRegistry()
    registry.register("storage", "site", lambda _: [Element("data", children=[Element("blob")])])
    peer.service_registry = registry
    stream = peer.alerter(CHAOS_FUNCTION).output
    group = system.compiler.groups[stream]

    stream.emit(_alert(1, "chaos", [make_service_call("storage", "site")]))
    stream.emit(_alert(2, "idle", [make_service_call("storage", "site")]))
    assert plain == ["1"]
    assert registry.calls_performed == 0  # no tree pattern was active
    stream.emit(_alert(3, "heavy", [make_service_call("storage", "site")]))
    assert (blob_a, blob_b, other) == (["3"], ["3"], [])
    assert registry.calls_performed == 1  # three active candidates, one call
    stream.emit_many([_alert(n, "heavy", [make_service_call("storage", "site")]) for n in (4, 5)])
    assert blob_a == ["3", "4", "5"]
    assert registry.calls_performed == group.index.materializations == 3


def test_cancel_all_leaves_no_group_and_no_table_entry():
    system, peer = _system()
    handles = []
    for index in range(12):
        template = f"<t{index % 3}><n>{{$x.n}}</n></t{index % 3}>"
        where = f'$x.kind = "chaos" and $x.n >= {index % 4}'
        if index % 5 == 0:
            where += " and $x/alert"
        handles.append(_subscribe(peer, f"q{index}", where, template)[0])
    system.run()
    alerter = peer.alerter(CHAOS_FUNCTION)
    for n in range(5):
        alerter.emit_numbered(n)
    alerter.output.emit_many([_alert(n) for n in range(5)])
    assert system.materialized.size > 0
    for handle in handles:
        handle.cancel()
    system.run()
    assert system.materialized.size == 0
    assert system.compiler.groups == {}
    assert len(system.resources) == 0


def _calls_of_one_emit(non_matching: int) -> int:
    """Python and C calls of ``stream.emit(item)``, after a warming emit."""
    system, peer = _system()
    _subscribe(peer, "hit", '$x.kind = "chaos"')
    peer.subscribe_many(
        [
            f'for $x in {CHAOS_FUNCTION}(<p>solo</p>) where $x.kind = "other{i}" '
            "return <seen><n>{$x.n}</n></seen>"
            for i in range(non_matching)
        ],
        reuse=False,
    )
    system.run()
    stream = peer.alerter(CHAOS_FUNCTION).output
    item = _alert(1)
    stream.emit(item)
    calls = 0

    def count(frame, event, argument) -> None:
        nonlocal calls
        calls += event in ("call", "c_call")

    # a collection that falls into the counted emit runs the finalizers of
    # whatever earlier tests left behind, and they would be counted as its calls
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        stream.emit(item)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def test_a_subscription_that_does_not_match_costs_no_call():
    assert _calls_of_one_emit(10) == _calls_of_one_emit(300)


def test_group_hands_eos_to_members_not_to_the_index():
    stream = Stream("src")
    compiler = _compiler()
    seen: list = []
    compiler.filter_group(stream, SimpleNamespace(service_registry=None)).join(
        "sig", FilterSubscription("s", [SimpleCondition("a", "=", "1")]), _member(seen, "m")
    )
    stream.close()
    assert len(seen) == 1 and is_eos(seen[0][1])
    assert compiler.groups[stream].items == 0
