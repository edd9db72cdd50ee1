"""Joins that read one stream share its history: one JoinSide per stream and key.

Generated: whatever joins are deployed, fed or cancelled -- bursts and single
items on both sides, duplicate and missing keys, tuple items, members born
after history exists, windowed joins and self-joins -- every join emits the
result sequence, index probes and history sizes of a frozen copy of the
per-join history index it replaced, and reaches EOS when it does.  Counted:
an item on a shared side is keyed and stored once, and probes only the
members whose other side holds its key.
"""

import gc
import random
import sys
from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import JoinOperator, ValueRef, get_binding, make_tuple_item
from repro.algebra.operators import Operator
from repro.algebra.plan import JOIN, PlanNode
from repro.algebra.template import TUPLE_TAG, merge_tuple_items
from repro.compile import CompiledPlanCache, CompileStats, MaterializedTable, PlanCompiler
from repro.monitor.deployment import Deployer
from repro.streams import EOS, Stream
from repro.workloads import MeteoScenario
from repro.xmlmodel import Element
from repro.xmlmodel.serialize import to_xml


class FrozenJoin(Operator):
    """The join before its inputs were sides: every join keeps, keys and probes
    its own history of both inputs (``_probe`` as it was)."""

    name = "Join"
    stateless = False

    def __init__(self, left_var, right_var, predicate, output=None, window=None):
        super().__init__(output)
        self.left_var = left_var
        self.right_var = right_var
        self.predicate = list(predicate)
        self.window = window
        self._index = [{}, {}]
        self._arrival = None if window is None else (deque(), deque())
        self.index_probes = 0
        self._attribute = [
            ref.detail if len(self.predicate) == 1 and ref.kind == "attribute" and ref.var == var else None
            for ref, var in zip(self.predicate[0], (left_var, right_var))
        ]

    def on_item(self, index, item):
        self._probe(index, (item,))

    def on_batch(self, index, items):
        self.items_in += len(items)
        self._probe(index, items)

    def _probe(self, index, items):
        var, attribute = (self.left_var, self.right_var)[index], self._attribute[index]
        own, other, windowed = self._index[index], self._index[1 - index], self._arrival is not None
        joined = []
        for item in items:
            if attribute is not None and item.tag != TUPLE_TAG:
                key = (item.attrib.get(attribute),)
            else:
                binding = get_binding(item, var)
                key = tuple([pair[index].value(binding) for pair in self.predicate])
            if None in key:
                continue
            if windowed:
                self._store(index, key, item)
            elif key in own:
                own[key].append(item)
            else:
                own[key] = [item]
            self.index_probes += 1
            for match in other.get(key, ()):
                pair = (item, match) if index == 0 else (match, item)
                joined.append(merge_tuple_items(*pair, self.left_var, self.right_var))
        if joined:
            self.emit_batch(joined)

    def _store(self, side, key, item):
        self._index[side].setdefault(key, []).append(item)
        arrival = self._arrival[side]
        arrival.append(key)
        if len(arrival) > self.window:
            oldest_key = arrival.popleft()
            bucket = self._index[side].get(oldest_key)
            if bucket:
                bucket.pop(0)
                if not bucket:
                    del self._index[side][oldest_key]

    def history_size(self, side):
        return sum(len(bucket) for bucket in self._index[side].values())


def _compiler() -> PlanCompiler:
    return PlanCompiler(MaterializedTable(), CompiledPlanCache(), CompileStats())


def _predicate(keys: int, right_var: str) -> list:
    attributes = ("callId", "method")[:keys]
    return [(ValueRef.attribute("c1", a), ValueRef.attribute(right_var, a)) for a in attributes]


def _params(keys: int, right_var: str, window) -> dict:
    return {"left_var": "c1", "right_var": right_var, "predicate": _predicate(keys, right_var), "window": window}


class _World:
    """Four streams and the joins deployed over them, shared (through the
    deployer's JOIN wiring) or frozen (each join its own history)."""

    def __init__(self, shared: bool) -> None:
        self.streams = [Stream(f"s{n}") for n in range(4)]
        self.compiler = _compiler()
        self.deployer = Deployer(SimpleNamespace(compiler=self.compiler))
        self.shared = shared
        self.joins: list = []
        self.results: list[list[str]] = []

    def deploy(self, left: int, right: int, keys: int, right_var: str, window) -> None:
        inputs = [self.streams[left], self.streams[right]]
        params = _params(keys, right_var, window)
        if self.shared:
            join = self.deployer._make_operator(PlanNode(JOIN, params), Stream("out"), inputs)
        else:
            join = FrozenJoin(params["left_var"], params["right_var"], params["predicate"], window=params["window"])
            for stream in inputs:
                join.connect(stream)
        seen: list[str] = []
        join.output.subscribe(lambda item: seen.append("EOS" if item is EOS else to_xml(item)))
        self.joins.append(join)
        self.results.append(seen)

    def feed(self, stream: int, items: list) -> None:
        if len(items) == 1:
            self.streams[stream].emit(items[0])
        else:
            self.streams[stream].emit_many(items)

    def observed(self) -> list:
        return [
            (seen, join.index_probes, join.history_size(0), join.history_size(1), join.output.closed)
            for join, seen in zip(self.joins, self.results)
        ]


def _item(rng: random.Random, serial: int) -> Element:
    attrs = {"n": str(serial), "method": rng.choice("ab")}
    if rng.random() < 0.85:
        attrs["callId"] = str(rng.randrange(5))  # duplicates, and a missing key
    alert = Element("alert", attrs)
    if rng.random() < 0.2:
        return make_tuple_item({rng.choice(["c1", "c2", "c3"]): alert})
    return alert


def _script(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    script: list[tuple] = []
    deployed = serial = 0
    for _ in range(rng.randrange(8, 40)):
        roll = rng.random()
        if roll < 0.3 or not deployed:
            left, right = rng.randrange(4), rng.randrange(4)  # left == right: a self-join
            window = rng.choice([None, None, None, 1, 3])
            script.append(("deploy", left, right, rng.choice([1, 1, 2]), rng.choice(["c2", "c2", "c3"]), window))
            deployed += 1
        elif roll < 0.4:
            script.append(("cancel", rng.randrange(deployed)))
        else:
            items = [_item(rng, serial + n) for n in range(rng.choice([1, 1, 2, 5]))]
            serial += len(items)
            script.append(("feed", rng.randrange(4), items))
    return script


def _run(script: list[tuple], shared: bool) -> _World:
    world = _World(shared)
    for step in script:
        if step[0] == "deploy":
            world.deploy(*step[1:])
        elif step[0] == "cancel":
            world.joins[step[1]].detach()
        else:
            world.feed(*step[1:])
    for stream in world.streams:
        stream.close()
    return world


def _listed(world: _World) -> set:
    """The departed joins a side's ``waiting`` lists still name."""
    sides = {id(side): side for join in world.joins for side in getattr(join, "_sides", ())}
    return {
        member for side in sides.values() for entries in side.waiting.values() for member, _ in entries if member.detached
    }


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_shared_sides_join_what_each_join_alone_joined(seed):
    script = _script(seed)
    shared = _run(script, shared=True)
    assert shared.observed() == _run(script, shared=False).observed()
    assert not _listed(shared)


def test_joins_on_one_stream_and_key_share_one_side():
    world = _World(shared=True)
    for _ in range(3):
        world.deploy(0, 1, 1, "c2", None)
    world.deploy(2, 1, 1, "c3", None)  # another variable: another side
    world.deploy(3, 1, 1, "c2", 2)  # windowed: sides of its own
    world.deploy(1, 1, 1, "c2", None)  # a self-join: sides of its own
    sides = world.compiler.join_sides
    assert len(sides) == 4
    right = [side for key, side in sides.items() if key[0] is world.streams[1]]
    assert sorted(len(side.members) for side in right) == [1, 3]
    assert world.streams[1].subscriber_count == 5  # two shared sides, the windowed join, the self-join's two
    for join in world.joins:
        join.detach()
    assert world.compiler.join_sides == {}
    assert all(stream.subscriber_count == 0 for stream in world.streams)


def _calls(action) -> int:
    calls = 0

    def count(frame, event, argument) -> None:
        nonlocal calls
        calls += event in ("call", "c_call")

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        action()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def _shared_side(members: int, held: range) -> tuple[_World, list]:
    """``members`` joins sharing stream 1, each holding the keys ``held`` on its own stream 0."""
    world = _World(shared=True)
    world.streams = [Stream("left"), Stream("in")]
    for _ in range(members):
        world.streams[0] = Stream("left")
        world.deploy(0, 1, 1, "c2", None)
        world.feed(0, [Element("alert", {"callId": str(key)}) for key in held])
    items = [Element("alert", {"callId": f"new{n}"}) for n in range(40)]
    return world, items


def test_an_item_on_a_shared_side_is_keyed_and_stored_once():
    """n items into a side of m members none of which holds their keys: at
    most n + m + c calls, where each join probing its own history makes 2·n·m."""
    for members in (1, 10, 60):
        world, items = _shared_side(members, range(3))
        calls = _calls(lambda: world.streams[1].emit_trusted(items))  # one frame
        assert calls <= len(items) + members + 10, (members, calls)
        assert {join.index_probes for join in world.joins} == {3 + len(items)}


def _calls_past(left: int) -> int:
    """Calls of a frame of 40 items whose keys one live member and ``left``
    members that left hold."""
    world, _ = _shared_side(1 + left, range(40))
    for join in world.joins[1:]:
        join.detach()
    # no longer listed in the shared side's waiting lists, they pin none of their items
    assert not _listed(world) and world.joins[0]._sides[0].history
    assert not any(join._sides[0].history for join in world.joins[1:])
    items = [Element("alert", {"callId": str(key)}) for key in range(40)]
    calls = _calls(lambda: world.streams[1].emit_trusted(items))
    assert len(world.results[0]) == 40 and not any(world.results[1:])
    assert world.joins[0].index_probes == 80 and all(join.index_probes == 40 for join in world.joins[1:])
    return calls


def test_a_member_that_left_is_not_probed():
    assert _calls_past(0) == _calls_past(30)


def test_figure_1_joins_of_several_thresholds_share_the_incom_side():
    """Three thresholds deployed between bursts: each reports the slow calls
    made since it joined, their joins read ``inCOM`` through one side, and a
    cancel of everything drops every side."""
    scenario = MeteoScenario(slow_fraction=0.3, seed=3)
    handles, seen = [], []
    for threshold in (20.0, 5.0, 10.0):
        scenario.threshold = threshold
        handles.append(scenario.monitor.subscribe(scenario.subscription_text(), max_results=1_000))
        scenario.system.run()
        seen.append(len(scenario.calls))
        scenario.run_traffic(60)
    for handle, threshold, first in zip(handles, (20.0, 5.0, 10.0), seen):
        scenario.threshold = threshold
        assert len(handle.results()) == len(scenario.expected_incidents(scenario.calls[first:])) > 0
    members = sorted(len(side.members) for side in scenario.system.compiler.join_sides.values())
    assert members[-1] == 3
    for handle in handles:
        handle.cancel()
    scenario.system.run()
    assert scenario.system.compiler.join_sides == {}


def test_a_join_attached_one_input_at_a_time_joins_what_came_before():
    """Items its left took before its right was attached still join."""
    runs = []
    for join in (FrozenJoin("c1", "c2", _predicate(1, "c2")), JoinOperator("c1", "c2", _predicate(1, "c2"))):
        left, right = Stream("l"), Stream("r")
        join.connect(left)
        left.emit_many([Element("alert", {"callId": "1", "n": "a"}), Element("alert", {"callId": "2"})])
        join.connect(right)
        seen: list = []
        join.output.subscribe(lambda item, seen=seen: seen.append(to_xml(item)))
        right.emit(Element("alert", {"callId": "1", "n": "b"}))
        left.emit(Element("alert", {"callId": "2", "n": "c"}))
        right.emit(Element("alert", {"callId": "2", "n": "d"}))
        runs.append((seen, join.index_probes, join.history_size(0), join.history_size(1)))
    assert runs[0] == runs[1] and len(runs[0][0]) == 3
