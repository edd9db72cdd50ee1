"""A twin subscription costs its delta: plan templates and the one-frame ranking.

(a) template ≡ compiler.  For every P2PML text the repository ships (scenario
    catalog, ``workloads/meteo.py``, everything ``examples/`` submits --
    ``workloads/edos.py`` has no text of its own, its subscriptions are the
    example's) and for generated ``SubscriptionBuilder`` subscriptions, both
    ``push_selections`` values: an instance equals a plan compiled afresh,
    memos and reuse key included, and shares nothing mutable with the
    template or a sibling.  (No GROUP: the compiler emits none.)  Two plans
    share a reuse key exactly when they did under the key that skipped a
    local PUBLISH's target (a frozen copy).
(b) no plan names a subscription: not a template's, not a deployed one's,
    not after a signature-cache hit (which once deployed the first
    subscriber's PUBLISH target) or a recovery, over the scenario catalog, the
    examples and a batch of twins.  Deployment identity is the record's.
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
import inspect
import io
import runpy
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads.chaos_feed  # noqa: F401 - registers the chaosFeed alerter
from repro.algebra.plan import ALERTER, FILTER, PUBLISH, PlanNode, plan_signature
from repro.algebra.template import RestructureTemplate
from repro.compile.compiler import PlanCompiler
from repro.filtering import FilterSubscription
from repro.monitor import P2PMSystem, ReuseEngine, StreamDefinitionDatabase
from repro.monitor.manager import SubscriptionManager, _build_template
from repro.monitor.optimizer import optimize_plan
from repro.monitor.placement import place_plan
from repro.monitor.reuse import ReuseReport, reuse_cache_key
from repro.monitor.stream_db import operator_spec
from repro.net import Peer, SimNetwork
from repro.net.errors import UnknownPeerError
from repro.p2pml import SubscriptionBuilder, compile_subscription, compile_text, parse_subscription
from repro.p2pml.compiler import PlanTemplate
from repro.scenarios.catalog import make_scenario, scenario_names
from repro.workloads import MeteoScenario
from repro.workloads.chaos_feed import CHAOS_FUNCTION
from repro.xmlmodel.serialize import to_xml

REPO = Path(__file__).resolve().parent.parent


# -- (a) template ≡ compiler ---------------------------------------------------------------


def compiled_plan(ast, push_selections: bool) -> PlanNode:
    """A subscription's plan compiled and optimised afresh."""
    return optimize_plan(compile_subscription(ast), push_selections=push_selections)


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


def check_template(ast, push_selections: bool) -> PlanTemplate:
    template = _build_template(ast, push_selections)
    expected = compiled_plan(ast, push_selections)
    instance, sibling = template.instantiate(), template.instantiate()
    assert shape(instance) == shape(expected)
    assert plan_signature(instance) == plan_signature(expected)
    assert template.key == reuse_cache_key(expected)
    for stamped, compiled in zip(instance.iter_nodes(), expected.iter_nodes(), strict=True):
        # the memos travel with the copy and are what a fresh node would compute
        assert stamped._detail is not None and stamped._spec is not None
        assert operator_spec(stamped) == operator_spec(compiled)
    assert reuse_cache_key(instance) == template.key
    assert stamps(instance, ()) == []
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


def frozen_reuse_cache_key(plan: PlanNode) -> tuple[str, str]:
    """``reuse_cache_key`` as of da99019, when a local PUBLISH's target was its
    subscription's id and the key skipped it."""
    parts: list[str] = []
    for node in plan.iter_nodes():
        keys = ["var", "left_var", "right_var", "membership_var", "mode", "key", "every", "criterion"]
        if node.params.get("mode") != "local":
            keys += ["target", "subscriber"]
        parts.append("\x1f".join(str(node.params.get(key, "")) for key in keys))
    return plan_signature(plan), "\x1e".join(parts)


def same_partition(plans) -> bool:
    pairs = {(frozen_reuse_cache_key(plan), reuse_cache_key(plan)) for plan in plans}
    return len(pairs) == len({old for old, _ in pairs}) == len({new for _, new in pairs})


def test_shipped_plans_share_a_key_exactly_when_they_did():
    asts = [
        s.build() if isinstance(s, SubscriptionBuilder) else parse_subscription(s) if isinstance(s, str) else s
        for s in shipped_subscriptions()
    ]
    assert same_partition(compiled_plan(ast, push) for ast in asts for push in (True, False))


@settings(max_examples=60, deadline=None)
@given(st.lists(builders(), min_size=2, max_size=6), st.booleans())
def test_generated_plans_share_a_key_exactly_when_they_did(batch, push_selections):
    # each with and without a BY clause that says "local": equal keys, before and now
    plans = [compiled_plan(builder.build(), push_selections) for builder in batch]
    plans += [compiled_plan(builder.by("local", "t").build(), push_selections) for builder in batch]
    assert same_partition(plans)


def test_using_an_instance_leaves_template_and_sibling_untouched():
    db = StreamDefinitionDatabase()
    db.publish_node(PlanNode(ALERTER, {"alerter": "outCOM", "peer": "a.com"}), "a.com", "out", [])
    template = _build_template(parse_subscription(MeteoScenario().subscription_text()), True)
    used, sibling = template.instantiate(), template.instantiate()
    before = shape(template.plan), shape(sibling)
    rewritten, report = ReuseEngine(db).apply(used)
    assert report.nodes_reused == 1 and rewritten.count("existing") == 1  # a.com's alerter
    place_plan(rewritten, manager_peer="monitor.com")
    assert all(node.placement for node in rewritten.iter_nodes())
    assert (shape(template.plan), shape(sibling)) == before
    assert all(node.placement is None for node in sibling.iter_nodes() if node.kind != ALERTER)


# -- (b) no plan names a subscription ------------------------------------------------------


def stamps(plan: PlanNode, sub_ids) -> list[tuple[str, str, str]]:
    """(kind, parameter, value) of every node parameter of ``plan`` that names one of
    ``sub_ids``, alone or as a prefix (``sub:var``, ``sub/var``); a FILTER's
    subscription by its id.  A local PUBLISH has no target: any it has counts."""
    found = []
    for node in plan.iter_nodes():
        for name, value in node.params.items():
            if isinstance(value, FilterSubscription):
                value = value.sub_id
            if not isinstance(value, str):
                continue
            if any(value == sub_id or value.startswith((f"{sub_id}:", f"{sub_id}/")) for sub_id in sub_ids) or (
                node.kind == PUBLISH and node.params["mode"] == "local" and name == "target"
            ):
                found.append((node.kind, name, value))
    return found


def test_identical_subscriptions_deploy_plans_that_name_none_of_them():
    system = P2PMSystem(seed=3)
    system.add_peer("s")
    monitor = system.add_peer("monitor")
    text = f'for $x in {CHAOS_FUNCTION}(<p>s</p>) where $x.kind = "chaos" return <seen>{{$x.n}}</seen>'
    sub_ids = [f"s{i}" for i in range(4)]
    handles = [monitor.subscribe(text, sub_id=sub_id) for sub_id in sub_ids]
    assert [h.reuse_report.cache_hit for h in handles] == [False, False, True, True]
    # a hit replays the rewrite of the pass that recorded it, s1's
    assert {h.sub_id: stamps(h.plan, sub_ids) for h in handles} == dict.fromkeys(sub_ids, [])
    assert stamps(system.plan_templates[text, True].plan, sub_ids) == []
    # what is the deployment's own is on its record, such as its ledger terminal
    assert {h.task.terminal for h in handles} == {("sub", sub_id, 0) for sub_id in sub_ids}


@functools.lru_cache(maxsize=None)
def shipped_deployments() -> tuple:
    """(template, handle) of every subscription the scenario catalog (seed 0, recoveries
    included) and the examples deploy, once they have run."""
    deployed: list = []
    submit = SubscriptionManager._submit_one

    def recording_submit(self, subscription, *args, **kwargs):
        handle = submit(self, subscription, *args, **kwargs)
        deployed.append(handle)
        return handle

    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(SubscriptionManager, "_submit_one", recording_submit)
        for name in scenario_names():
            make_scenario(name, seed=0).run()
        for example in sorted((REPO / "examples").glob("*.py")):
            runpy.run_path(str(example), run_name="__main__")
    return tuple((handle._record.template, handle) for handle in deployed)


def test_no_shipped_plan_names_a_subscription():
    deployed = shipped_deployments()
    sub_ids = {handle.sub_id for _, handle in deployed}
    assert len(sub_ids) >= 10
    assert any(handle._record.epoch for _, handle in deployed)  # a recovery redeployed one
    for template, handle in deployed:
        assert stamps(template.plan, sub_ids) == []
        assert stamps(handle.plan, sub_ids) == [], handle.sub_id


def test_only_a_publication_the_user_names_has_a_target():
    builder = SubscriptionBuilder().for_var("c", "outCOM", "a.com").returns("$c")
    assert check_template(builder.build(), True).instantiate().params == {"mode": "local"}
    for target in ("", "mine"):  # the builder's escape hatch says "local": no target either
        assert check_template(builder.by("local", target).build(), True).instantiate().params == {"mode": "local"}
    for target in ("", ":c", "s0"):
        assert check_template(builder.by("channel", target).build(), True).instantiate().params["target"] == target


def test_compile_text_ignores_a_sub_id():
    text = (
        "for $x in ( for $y in rssFeed(<p>news.com</p>) where $y.n > 1 return <a>{$y}</a> ) "
        "where $x.n > 2 return <b>{$x}</b>"
    )
    plain, named = compile_text(text), compile_text(text, "s0")
    assert shape(named) == shape(plain) == shape(compile_subscription(parse_subscription(text)))
    assert stamps(named, {"s0"}) == []
    assert len(named.find_all(FILTER)) == 2  # the nested subscription's filter and the outer one


def test_deployment_identity_is_no_parameter():
    def parameters(function) -> list[str]:
        return list(inspect.signature(function).parameters)

    assert parameters(compile_subscription) == ["ast"]
    assert parameters(PlanTemplate.instantiate) == ["self"]
    assert parameters(ReuseEngine.apply) == ["self", "source"]
    assert parameters(PlanCompiler.compile_segment) == ["self", "chain"]


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
    # no table: each plan compiled afresh from its text
    texts: dict[int, str] = {}  # a template's text, by the template's id

    def template_for(self, text, push_selections):
        template = _build_template(parse_subscription(text), push_selections)
        texts[id(template)] = text
        return template

    monkeypatch.setattr(SubscriptionManager, "_template_for", template_for)
    monkeypatch.setattr(
        PlanTemplate,
        "instantiate",
        lambda self: compiled_plan(parse_subscription(texts[id(self)]), self.push_selections),
    )
    compiled_afresh = run_batch("compile every time")
    assert by_submit == by_batch == compiled_afresh
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
        network.fail_peer(peer)
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
