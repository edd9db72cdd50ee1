"""A twin subscription costs its delta: plan templates and the one-frame ranking.

(a) template ≡ compiler.  For every P2PML text the repository ships (scenario
    catalog, ``workloads/meteo.py``, everything ``examples/`` submits --
    ``workloads/edos.py`` has no text of its own, its subscriptions are the
    example's) and for generated ``SubscriptionBuilder`` subscriptions, both
    ``push_selections`` values: an instance equals what the parent compiled
    per subscription, memos and reuse key included, and shares nothing
    mutable with the template or a sibling.  (No GROUP: the compiler emits
    none.)  New code, so "fails at the parent" means "cannot be imported".
(b) slots are positions, not text.
(c) ``submit`` ≡ ``submit_many`` ≡ a system that compiles every subscription
    afresh, on a twin-heavy batch: handles, reports, stream ids, ledger keys.
(d) recovery keeps ``push_selections``.  Fails at the parent (d7631ec).
(e) ``SimNetwork.nearest`` against a frozen copy of the ranking it replaced.
(f) ``sys.setprofile`` guards: a twin ``submit`` enters no compiler, rewrite
    or optimiser frame and derives no reuse key; ``_select_provider`` makes
    the same number of calls for 2 and for 200 replicas.  Both fail at the
    parent.
"""

import contextlib
import functools
import gc
import io
import runpy
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads.chaos_feed  # noqa: F401 - registers the chaosFeed alerter
from repro.algebra.plan import ALERTER, FILTER, PlanNode, plan_signature
from repro.algebra.template import RestructureTemplate
from repro.monitor import P2PMSystem, ReuseEngine, StreamDefinitionDatabase
from repro.monitor.manager import SubscriptionManager, _build_template
from repro.monitor.optimizer import optimize_plan
from repro.monitor.placement import place_plan
from repro.monitor.reuse import ReuseReport, reuse_cache_key
from repro.monitor.stream_db import operator_spec
from repro.net import Peer, SimNetwork
from repro.net.errors import UnknownPeerError
from repro.p2pml import SubscriptionBuilder, compile_subscription, parse_subscription
from repro.p2pml.compiler import PlanTemplate
from repro.scenarios.catalog import make_scenario, scenario_names
from repro.workloads import MeteoScenario
from repro.workloads.chaos_feed import CHAOS_FUNCTION
from repro.xmlmodel.serialize import to_xml

REPO = Path(__file__).resolve().parent.parent


# -- (a) template ≡ compiler ---------------------------------------------------------------


def parent_plan(ast, sub_id: str, push_selections: bool) -> PlanNode:
    """A subscription's plan as the parent commit built it: compiled under its own id."""
    return optimize_plan(compile_subscription(ast, sub_id), push_selections=push_selections)


def shape(node: PlanNode):
    """``node`` as plain data: dataclass equality throughout (``FilterSubscription``
    ids and PUBLISH targets included), RESTRUCTURE templates by their skeleton --
    two compilations build two ``RestructureTemplate`` objects, which compare by
    identity."""
    params = {
        name: to_xml(value.skeleton) if isinstance(value, RestructureTemplate) else value
        for name, value in node.params.items()
    }
    return node.kind, params, node.placement, [shape(child) for child in node.children]


def containers(plan: PlanNode) -> set[int]:
    return {id(part) for node in plan.iter_nodes() for part in (node.params, node.children)}


def check_template(ast, push_selections: bool, sub_id: str = "office.sub-7") -> PlanTemplate:
    template = _build_template(ast, push_selections)
    expected = parent_plan(ast, sub_id, push_selections)
    instance, sibling = template.instantiate(sub_id), template.instantiate("other")
    assert shape(instance) == shape(expected)
    assert plan_signature(instance) == plan_signature(expected)
    assert template.key == reuse_cache_key(expected)
    for stamped, compiled in zip(instance.iter_nodes(), expected.iter_nodes(), strict=True):
        # the memos travel with the copy and are what a fresh node would compute
        assert stamped._detail is not None and stamped._spec is not None
        assert operator_spec(stamped) == operator_spec(compiled)
    assert reuse_cache_key(instance) == template.key
    assert not containers(instance) & (containers(sibling) | containers(template.plan))
    return template


@functools.lru_cache(maxsize=None)
def shipped_subscriptions() -> tuple:
    """Every subscription the scenario catalog, the meteo workload and the examples submit."""
    found: list = []
    for name in scenario_names():
        scenario = make_scenario(name)
        found.append(scenario._subscription_text([f"s{i}" for i in range(scenario.n_sources)]))
    found.append(MeteoScenario().subscription_text())
    submit = SubscriptionManager._submit_one

    def recording_submit(self, subscription, *args, **kwargs):
        found.append(subscription)
        return submit(self, subscription, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(SubscriptionManager, "_submit_one", recording_submit)
        for example in sorted((REPO / "examples").glob("*.py")):
            runpy.run_path(str(example), run_name="__main__")
    return tuple(dict.fromkeys(found))


@pytest.mark.parametrize("push_selections", [True, False])
def test_every_shipped_subscription_instantiates_to_the_compiled_plan(push_selections):
    subscriptions = shipped_subscriptions()
    assert len(subscriptions) >= 10
    for subscription in subscriptions:
        if isinstance(subscription, SubscriptionBuilder):
            subscription = subscription.build()
        elif isinstance(subscription, str):
            subscription = parse_subscription(subscription)
        check_template(subscription, push_selections)


PEERS = ("a.com", "b.com", "c.com", "local")
ATTRIBUTES = ("callId", "callMethod", "caller", "n")
COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


@st.composite
def builders(draw, depth: int = 0) -> SubscriptionBuilder:
    """Paths, simple / computed conditions, tree patterns, joins, nested and
    membership-driven sources, DISTINCT, every BY mode."""
    builder = SubscriptionBuilder()
    variables = [f"v{depth}{i}" for i in range(draw(st.integers(1, 3)))]
    for var in variables:
        source = draw(st.sampled_from(("alerter", "nested", "follow") if depth < 2 else ("alerter",)))
        if source == "nested":
            builder.for_nested(var, draw(builders(depth=depth + 1)))
        elif source == "follow":
            builder.for_var(f"j{var}", "areRegistered", "registry.com")
            builder.for_var(var, "inCOM", follow=f"$j{var}")
        else:
            peers = draw(st.lists(st.sampled_from(PEERS), min_size=1, max_size=3, unique=True))
            builder.for_var(var, draw(st.sampled_from(("inCOM", "outCOM"))), *peers)
        for kind in draw(st.lists(st.sampled_from(("simple", "computed", "same-var", "exists", "path")), max_size=3)):
            attribute = draw(st.sampled_from(ATTRIBUTES))
            if kind == "simple":
                builder.where(f"${var}.{attribute}", draw(st.sampled_from(COMPARISONS)), '"k"')
            elif kind == "computed":
                name = f"d{len(builder._lets)}{var}"
                builder.let(name, f"${var}.{attribute} - ${var}.n + 1")
                builder.where(f"${name}", draw(st.sampled_from(COMPARISONS)), draw(st.integers(0, 9)))
            elif kind == "same-var":
                builder.where(f"${var}.{attribute}", "<", f"${var}.n")
            elif kind == "exists":
                builder.where_exists(f"${var}/body/{attribute}")
            else:
                builder.where(f"${var}/body/{attribute}", "=", '"k"')
    for var in variables[1:]:
        builder.where(f"${variables[0]}.callId", "=", f"${var}.callId")
    if len(variables) == 1 and draw(st.booleans()):
        builder.returns(f"${variables[0]}")
    else:
        holes = "".join(f"<{var}>{{${var}.caller}}</{var}>" for var in variables)
        builder.returns(f'<hit n="{{${variables[0]}.n}}">{holes}</hit>')
    builder.distinct(draw(st.booleans()))
    by = draw(st.sampled_from((None, "channel", "email", "file", "rss", "webpage", "local")))
    if by == "channel":
        builder.by_channel("out", subscriber=draw(st.sampled_from((None, "b.com"))))
    elif by is not None:
        builder.by(by, "target")
    return builder


@settings(max_examples=150, deadline=None)
@given(builders(), st.booleans())
def test_generated_subscriptions_instantiate_to_the_compiled_plan(builder, push_selections):
    check_template(builder.build(), push_selections)


def test_using_an_instance_leaves_template_and_sibling_untouched():
    db = StreamDefinitionDatabase()
    db.publish_node(PlanNode(ALERTER, {"alerter": "outCOM", "peer": "a.com"}), "a.com", "out", [])
    template = _build_template(parse_subscription(MeteoScenario().subscription_text()), True)
    used, sibling = template.instantiate("used"), template.instantiate("sibling")
    before = shape(template.plan), shape(sibling)
    rewritten, report = ReuseEngine(db).apply(used, template.key)
    assert report.nodes_reused == 1 and rewritten.count("existing") == 1  # a.com's alerter
    place_plan(rewritten, manager_peer="monitor.com")
    assert all(node.placement for node in rewritten.iter_nodes())
    assert (shape(template.plan), shape(sibling)) == before
    assert all(node.placement is None for node in sibling.iter_nodes() if node.kind != ALERTER)


# -- (b) slots are positions, not text -----------------------------------------------------

FILTERED = 'for $c in outCOM(<p>a.com</p>) where $c.callMethod = "M" return <hit>{$c.caller}</hit>'


@pytest.mark.parametrize("sub_id", ["a/b", "a:b", ":", "/", "", "subscription", "x" * 300])
def test_any_sub_id_round_trips(sub_id):
    template = check_template(parse_subscription(FILTERED), True, sub_id=sub_id or "fallback")
    plan = template.instantiate(sub_id)
    assert plan.params["target"] == sub_id
    assert [node.params["subscription"].sub_id for node in plan.find_all(FILTER)] == [f"{sub_id}:c"]


def test_user_data_that_looks_like_a_slot_is_left_alone():
    # no BY clause: the target is a slot.  A BY clause, whatever it says, is the user's
    own = _build_template(SubscriptionBuilder().for_var("c", "outCOM", "a.com").returns("$c").build(), True)
    assert own.instantiate("mine").params["target"] == "mine"
    for mode, target in (("local", ""), ("local", "mine"), ("channel", ""), ("channel", ":c")):
        builder = SubscriptionBuilder().for_var("c", "outCOM", "a.com").returns("$c").by(mode, target)
        check_template(builder.build(), True)
        assert _build_template(builder.build(), True).instantiate("mine").params["target"] == target
    # ... and a literal equal to a suffix stays a literal
    text = 'for $c in outCOM(<p>a.com</p>) where $c.callMethod = ":c" return <hit at=":c">{$c.caller}</hit>'
    plan = check_template(parse_subscription(text), True).instantiate("mine")
    (node,) = plan.find_all(FILTER)
    assert node.params["subscription"].sub_id == "mine:c"
    assert node.params["subscription"].simple[0].value == ":c"


def test_nested_ids_two_levels_deep():
    innermost = SubscriptionBuilder().for_var("z", "outCOM", "a.com").where("$z.n", ">", 1).returns("$z")
    inner = SubscriptionBuilder().for_nested("b", innermost).where("$b.n", ">", 2).returns("$b")
    outer = SubscriptionBuilder().for_nested("a", inner).where("$a.n", ">", 3).returns("$a")
    plan = check_template(outer.build(), True, sub_id="sub").instantiate("sub")
    ids = sorted(node.params["subscription"].sub_id for node in plan.find_all(FILTER))
    assert ids == ["sub/a/b:z", "sub/a:b", "sub:a"]


# -- (c) submit ≡ submit_many ≡ compile every time -----------------------------------------


def twin_heavy_batch() -> tuple[list[str], list[str]]:
    texts = [
        f'for $x in {CHAOS_FUNCTION}(<p>s0</p> <p>s1</p>) where $x.kind = "chaos" and $x.n > {i} '
        f"return <seen n=\"{{$x.n}}\"/>" + (' by publish as channel "shared"' if i == 2 else "")
        for i in range(3)
    ]
    batch = [texts[i % 3] for i in range(5)] + [texts[0]] * 7
    return batch, [f"twin-{i}" for i in range(len(batch))]


def observed(system, handles) -> dict:
    return {
        "handles": [(h.sub_id, h.status, h.operator_count, sorted(h.peers_involved())) for h in handles],
        "plans": [shape(h.plan) for h in handles],
        "reports": [
            (r.nodes_considered, r.nodes_reused, r.reused, r.queries_issued, r.cache_hit)
            for r in (h.reuse_report for h in handles)
        ],
        "streams": sorted(
            (d.peer_id, d.stream_id, d.operator, d.spec, d.operands)
            for d in system.stream_db.all_stream_descriptions()
        ),
        "ledger": sorted(map(repr, system.resources.keys())),
        "reuse_cache": (system.reuse_cache.hits, system.reuse_cache.misses),
    }


def run_batch(how: str) -> dict:
    system = P2PMSystem(seed=11)
    for source in ("s0", "s1"):
        system.add_peer(source)
    monitors = [system.add_peer(f"m{i}") for i in range(2)]
    batch, sub_ids = twin_heavy_batch()
    half = len(batch) // 2
    if how == "submit_many":
        handles = monitors[0].subscribe_many(batch[:half], sub_ids=sub_ids[:half])
        handles += monitors[1].subscribe_many(batch[half:], sub_ids=sub_ids[half:])
    else:
        handles = [
            monitors[index >= half].subscribe(text, sub_id=sub_id)
            for index, (text, sub_id) in enumerate(zip(batch, sub_ids))
        ]
    system.run()
    seen = observed(system, handles)
    assert len(system.plan_templates) == (0 if how == "compile every time" else 3)
    for handle in handles:
        handle.cancel()
    assert len(system.resources) == 0
    return seen


def test_submit_is_submit_many_is_compiling_every_time(monkeypatch):
    by_submit, by_batch = run_batch("submit"), run_batch("submit_many")
    # the parent's way: no table, each plan compiled under its own sub-id
    monkeypatch.setattr(
        SubscriptionManager,
        "_template_for",
        lambda self, text, push_selections: _build_template(parse_subscription(text), push_selections),
    )
    monkeypatch.setattr(
        PlanTemplate,
        "instantiate",
        lambda self, sub_id: parent_plan(self.ast, sub_id, self.push_selections),
    )
    the_parents_way = run_batch("compile every time")
    assert by_submit == by_batch == the_parents_way
    hits, misses = by_submit["reuse_cache"]
    assert hits > misses  # twin-heavy: most passes are replays
    assert any(report[1] for report in by_submit["reports"])


# -- (d) recovery keeps push_selections ----------------------------------------------------


def test_redeploy_keeps_push_selections():
    system = P2PMSystem(seed=1)
    sources = [f"s{i}" for i in range(3)]
    for source in sources:
        system.add_peer(source)
    monitor = system.add_peer("monitor")
    peers = " ".join(f"<p>{source}</p>" for source in sources)
    text = (
        f'for $x in {CHAOS_FUNCTION}({peers}) where $x.kind = "chaos" '
        "return <seen><n>{$x.n}</n></seen>"
    )
    handle = monitor.subscribe(text, sub_id="e5", push_selections=False, reuse=False)
    system.run()

    def operators(plan: PlanNode) -> list[str]:
        return [node.kind for node in plan.iter_nodes() if node.kind != ALERTER]

    original = operators(handle.plan)
    assert original == ["union", "filter", "restructure", "publish"]  # one selection, above the union
    victim = handle.plan.find_all(FILTER)[0].placement
    system.fail_peer(victim)
    system.run()
    record = monitor.manager.database.get("e5")
    assert victim not in handle.peers_involved()
    # the victim hosted a source too, so a union branch is gone; the operators are the same
    assert operators(record.plan) == original
    assert record.template is system.plan_templates[text, False]


# -- (e) the ranking is the old ranking ----------------------------------------------------


def frozen_select(network: SimNetwork, consumer: str, candidates: list[tuple[str, str]]):
    """``ReuseEngine._select_provider`` from its candidate list on, as of d7631ec."""
    if len(candidates) == 1:
        return candidates[0]
    if len(candidates) > 2:
        first_per_peer: dict[str, tuple[str, str]] = {}
        for candidate in candidates:
            first_per_peer.setdefault(candidate[0], candidate)
        candidates = list(first_per_peer.values())
    reachable = [c for c in candidates if network.is_alive(c[0])]
    if not reachable:
        reachable = [c for c in candidates if network.has_peer(c[0])]
    if not reachable:
        return candidates[0]
    return min(reachable, key=lambda candidate: network.distance(consumer, candidate[0]))


#: a coarse grid, so that exact ties and co-located peers are the rule
GRID = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda xy: (xy[0] / 3, xy[1] / 3))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(GRID | st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=12),
    st.data(),
)
def test_nearest_is_the_frozen_ranking(coordinates, data):
    network = SimNetwork(seed=0)
    for index, position in enumerate(coordinates):
        Peer(f"p{index}", network, coordinates=position)
    registered = [f"p{index}" for index in range(len(coordinates))]
    for peer in data.draw(st.lists(st.sampled_from(registered), unique=True)):
        network.fail_peer(peer, notify=False)
    pool = registered + ["ghost0", "ghost1"]
    candidates = [
        (peer, f"stream-{position}")
        for position, peer in enumerate(data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=300)))
    ]
    consumer = data.draw(st.sampled_from(pool))
    try:
        expected = frozen_select(network, consumer, candidates)
    except UnknownPeerError as error:
        with pytest.raises(UnknownPeerError) as raised:
            network.nearest(consumer, candidates)
        assert str(raised.value) == str(error)
    else:
        assert network.nearest(consumer, candidates) == expected


# -- (f) what a twin and a replica cost ----------------------------------------------------


def frames_entered(action) -> list[str]:
    entered: list[str] = []

    def record(frame, event, argument):
        if event == "call":
            entered.append(f"{frame.f_code.co_filename}:{frame.f_code.co_name}")

    sys.setprofile(record)
    try:
        action()
    finally:
        sys.setprofile(None)
    return entered


def test_a_twin_submit_compiles_nothing():
    system = P2PMSystem(seed=3)
    system.add_peer("s0")
    monitor = system.add_peer("monitor")
    text = f'for $x in {CHAOS_FUNCTION}(<p>s0</p>) where $x.kind = "chaos" return <seen>{{$x.n}}</seen>'
    monitor.subscribe(text)
    for options in ({}, {"reuse": False}):
        entered = frames_entered(lambda: monitor.subscribe(text, **options))
        assert any(frame.endswith("compiler.py:instantiate") for frame in entered)
        for fragment in ("p2pml/compiler.py:_", "p2pml/compiler.py:compile", "p2pml/parser.py",
                         "algebra/rewrite.py", "monitor/optimizer.py", ":reuse_cache_key"):
            assert not [frame for frame in entered if fragment in frame], fragment
    # another push_selections setting is another template: compiled once, then a twin too
    assert any("monitor/optimizer.py" in f for f in frames_entered(lambda: monitor.subscribe(text, push_selections=False)))
    assert not any("monitor/optimizer.py" in f for f in frames_entered(lambda: monitor.subscribe(text, push_selections=False)))


def test_ranking_costs_the_same_for_2_and_for_200_replicas():
    def calls(replicas: int) -> int:
        network = SimNetwork(seed=5)
        db = StreamDefinitionDatabase()
        db.publish_node(PlanNode(ALERTER, {"alerter": "outCOM", "peer": "p0"}), "p0", "out", [])
        for index in range(replicas + 1):
            Peer(f"p{index}", network)
        for index in range(1, replicas + 1):
            db.publish_replica("p0", "out", f"p{index}", f"copy-{index}")
        engine = ReuseEngine(db, network=network, consumer_peer=f"p{replicas}")
        count = 0

        def record(frame, event, argument):
            nonlocal count
            count += event in ("call", "c_call")

        report = ReuseReport()
        gc.collect()  # a collection inside the count would add earlier tests' finalizers to it
        gc.disable()
        sys.setprofile(record)
        try:
            chosen = engine._select_provider(("p0", "out"), report)
        finally:
            sys.setprofile(None)
            gc.enable()
        assert chosen == (f"p{replicas}", f"copy-{replicas}")  # the consumer's own replica
        return count

    assert calls(2) == calls(200) <= 12
