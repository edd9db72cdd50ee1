"""A reuse hit stamps the recipe its cached rewrite last built.

A cached rewrite with no JOIN and no UNION keeps one recipe slot: the
consumer peer and providers of the last replay whose recipe was built, and
that recipe.  A replay choosing the same peer and providers stamps it.

(a) stamped ≡ the replay it replaced.  ``frozen_replay`` below is that
    replay: every hit copies the cached rewrite and re-ranks its providers,
    so the manager places the copy with the live load and builds a one-off
    recipe.  Generated ``subscribe_many`` / ``cancel`` / peer fail and revive
    steps, over a pool with and without JOIN and UNION, several subscribing
    peers and the replicas their subscriptions publish, run on two systems,
    one with the frozen replay.  Per subscription the placed ``describe()``
    and the provider params must be equal, and after each step the placement
    load, the ledger keys and the network statistics; after the steps a burst
    delivers the same items to every subscription, the index is coherent and
    cancelling everything empties the ledger.
(b) read-only: no deploy, cancel or recovery writes a plan a subscription was
    handed, and a stamped plan is the slot recipe's tree.
(c) the pool stamps: the differential exercises the slot.
"""

from __future__ import annotations

from types import MethodType

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.plan import EXISTING
from repro.monitor import P2PMSystem
from repro.monitor.reuse import ReuseEngine
from repro.workloads.chaos_feed import CHAOS_FUNCTION, ChaosFeedWorkload

SOURCES = ("s0", "s1", "s2")
PEERS = SOURCES + ("m",)


def feed(*peers: str) -> str:
    return f"{CHAOS_FUNCTION}({''.join(f'<p>{peer}</p>' for peer in peers)})"


TEXTS = [
    f'for $x in {feed("s0")} where $x.kind = "chaos" return <seen>{{$x.n}}</seen>',
    f'for $x in {feed("s1")} where $x.n > 1 return <seen>{{$x.n}}</seen>',
    f'for $x in {feed("s2")} return distinct <hit src="{{$x.source}}"/>',
    f'for $x in {feed("s0", "s1")} where $x.kind = "chaos" return <seen>{{$x.n}}</seen>',
    f'for $x in {feed("s0")}, $y in {feed("s2")} where $x.n = $y.n '
    "return <pair><n>{$x.n}</n><m>{$y.n}</m></pair>",
    f'for $x in {feed("s1")} where $x.kind = "chaos" return <seen n="{{$x.n}}"/> by publish as channel "shared"',
    # a source on the subscribing peer is never matched: its rewrite holds
    # every peer's replays, and a JOIN over it is never reused
    f'for $x in {feed("local")} where $x.n > 0 return <seen>{{$x.n}}</seen>',
    f'for $x in {feed("local")}, $y in {feed("s1")} where $x.n = $y.n and $y.kind = "chaos" '
    "return <pair><n>{$x.n}</n></pair>",
    f'for $x in {feed("local", "s0", "s2")} where $x.n > 0 return <seen>{{$x.n}}</seen>',
]

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), st.sampled_from(PEERS),
                  st.lists(st.sampled_from(range(len(TEXTS))), min_size=1, max_size=4)),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("fail"), st.sampled_from(("s1", "s2"))),
        st.tuples(st.just("revive"), st.sampled_from(("s1", "s2"))),
    ),
    min_size=1,
    max_size=16,
)


def frozen_replay(self, entry, report):
    """``ReuseEngine._replay`` before the recipe slot: rebuild a cached
    rewrite, re-ranking every provider choice, and set no slot."""
    rewritten = entry.plan.copy()
    report.cache_hit = True
    report.nodes_considered = entry.nodes_considered
    report.nodes_reused = len(entry.reused_originals)
    providers = {}
    for kind, original in entry.reused_originals:
        provider = providers[original] = self._select_provider(original, report)
        report.reused.append((kind, f"{original[1]}@{original[0]}", provider[0]))
    for node in rewritten.iter_nodes():
        if node.kind == EXISTING:
            params = node.params
            params["provider_peer"], params["provider_stream_id"] = providers[params["peer"], params["stream_id"]]
    return rewritten


def build_system(frozen: bool) -> P2PMSystem:
    system = P2PMSystem(seed=5)
    for peer_id in PEERS:
        manager = system.add_peer(peer_id).manager
        if frozen:
            def engine(make=manager._reuse_engine) -> ReuseEngine:
                built = make()
                built._replay = MethodType(frozen_replay, built)
                return built

            manager._reuse_engine = engine
    return system


def placed(plan) -> tuple:
    providers = [
        (node.params["peer"], node.params["stream_id"], node.params["provider_peer"], node.params["provider_stream_id"])
        for node in plan.iter_nodes()
        if node.kind == EXISTING
    ]
    return plan.describe(), providers


def state(system: P2PMSystem) -> tuple:
    return (
        dict(system.placement_load),
        sorted(map(repr, system.resources.keys())),
        system.network.stats.snapshot(),
    )


def written(plan) -> list:
    """Every node of ``plan`` as it stands: identity, placement, params and children."""
    return [
        (id(node), node.kind, node.placement, sorted(map(repr, node.params.items())), [id(c) for c in node.children])
        for node in plan.iter_nodes()
    ]


class Run:
    """One system driven through the steps, recording what each step left."""

    def __init__(self, frozen: bool) -> None:
        self.system = build_system(frozen)
        self.live: list = []
        self.received: list[list[tuple]] = []
        self.handed: list = []  # (plan, its nodes as handed out)
        self.observed: list = []

    def step(self, step: tuple) -> None:
        system = self.system
        if step[0] == "subscribe":
            if not system.is_alive(step[1]):
                return
            handles = system.peer(step[1]).subscribe_many([TEXTS[index] for index in step[2]])
            for handle in handles:
                got: list[tuple] = []
                self.received.append(got)
                handle.on_result(lambda item, got=got: got.append(item.structural_key()))
                self.handed.append((handle.plan, written(handle.plan)))
                self.observed.append(placed(handle.plan))
            self.live += handles
        elif step[0] == "cancel":
            if self.live:
                self.live.pop(step[1] % len(self.live)).cancel()
        elif step[0] == "fail":
            system.fail_peer(step[1])
        else:
            system.revive_peer(step[1])
        system.run()
        self.observed.append(state(system))

    def burst(self) -> None:
        workload = ChaosFeedWorkload(list(PEERS))
        for tick in range(3):
            workload.tick(self.system, tick)
        self.system.run()


@settings(max_examples=60, deadline=None)
@given(STEPS)
# a slot stamped for another peer would place that peer's publisher
@example([("subscribe", "m", [6, 6, 6]), ("subscribe", "s0", [6, 6])])
# m's own replica goes with its last subscription, and the rewrite holds
@example([("subscribe", "s1", [0]), ("subscribe", "m", [0, 0, 0]), ("cancel", 1), ("cancel", 1), ("cancel", 1),
          ("subscribe", "m", [0, 0])])
# a UNION's placement reads the load: its fifth pass moves it, providers unchanged
@example([("subscribe", "m", [8, 8, 8, 8]), ("subscribe", "m", [8, 8]), ("fail", "s2"), ("subscribe", "m", [7, 7])])
def test_a_stamped_replay_deploys_what_the_copying_replay_deployed(steps):
    old, new = Run(frozen=True), Run(frozen=False)
    for step in steps:
        old.step(step)
        new.step(step)
        assert new.observed == old.observed
    old.burst()
    new.burst()
    assert new.received == old.received
    assert new.system.stream_db.verify_index_coherence() == []
    for run in (old, new):
        for handle in run.live:
            handle.cancel()
        run.system.run()
    assert len(new.system.resources) == 0
    assert state(new.system) == state(old.system)
    # (b) nothing a subscription was handed was written afterwards
    assert [written(plan) for plan, _ in new.handed] == [nodes for _, nodes in new.handed]


def test_a_repeated_subscription_stamps_the_slot_recipe():
    """(b), (c): from the first replay on, one peer's repeats of a text share
    one placed tree, the slot recipe's; cancelling them leaves it as it was."""
    system = P2PMSystem(seed=5)
    for peer_id in PEERS:
        system.add_peer(peer_id)
    monitor = system.peer("m")
    handles = []
    for _ in range(5):
        handles.append(monitor.subscribe(TEXTS[0]))
        system.run()
    cache = system.reuse_cache
    (entry,) = [entry for entry in cache._entries.values() if entry.recipe is not None]
    stamped = [handle for handle in handles if handle.plan is entry.recipe.plan]
    assert len(stamped) >= 2 and all(handle.reuse_report.cache_hit for handle in stamped)
    assert entry.recipe.charges  # worked out at the first stamp
    before = written(entry.recipe.plan)
    for handle in handles:
        handle.cancel()
    system.run()
    assert written(entry.recipe.plan) == before
    assert len(system.resources) == 0


def test_a_rewrite_that_keeps_a_join_or_a_union_keeps_no_slot():
    system = P2PMSystem(seed=5)
    for peer_id in PEERS:
        system.add_peer(peer_id)
    monitor = system.peer("m")
    handles = [monitor.subscribe(TEXTS[7]) for _ in range(4)]
    system.run()
    assert handles[-1].reuse_report.cache_hit
    assert len({id(handle.plan) for handle in handles}) == 4
    (entry,) = [entry for entry in system.reuse_cache._entries.values() if not entry.fixed]
    assert entry.recipe is None
