"""Deployment recipes: a subscription stamps its template's placed, compiled plan.

(a) recipe ≡ the per-subscription path it replaced.  ``frozen_prepare`` below
    is that path: instantiate the template, place the copy with the live
    load, check that every node is placed, segment it (``frozen_segments``,
    the segment analysis as it was, recording fallbacks and segments as it
    went) and compile each segment.  Generated texts -- one source or a
    union, filters, restructures, DISTINCT --, subscribing peers, avoid sets
    and starting loads go through both: placed ``describe()``, segment
    chains, program signatures, the compile statistics and the load must be
    equal, and deployed on two systems, so must every stream description and
    ledger key.
(b) immutability: N deployments of one text from one peer share one placed
    tree, node objects included; subscribe, pause, resume, cancel and a
    recovery redeploy leave the template's tree and the recipe's tree as they
    were, node for node and parameter for parameter.
(c) the recipe table is bounded: full, it is cleared wholesale.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.monitor.manager as manager_module
from repro.algebra.plan import FILTER, PlanNode, plan_signature
from repro.compile.compiler import FALLBACK_REASONS, PlanCompiler
from repro.monitor import P2PMSystem
from repro.monitor.deployment import Deployer, DeploymentRecipe
from repro.monitor.manager import _build_template
from repro.monitor.placement import place_plan
from repro.monitor.subscription import DEPLOYED, Subscription
from repro.p2pml import parse_subscription
from repro.workloads.chaos_feed import CHAOS_FUNCTION

SOURCES = ("a.com", "b.com", "c.com")
MANAGERS = ("m1", "m2", "a.com")
PEERS = SOURCES + ("m1", "m2")
CONDITIONS = ('$x.kind = "chaos"', "$x.n >= 2", "$x.n < 7")


# -- (a) recipe ≡ the path it replaced -----------------------------------------------------


def frozen_segments(compiler: PlanCompiler, plan: PlanNode) -> tuple[dict, list, list]:
    """``PlanCompiler.plan_segments`` as it was: chains by id(tail), plus the
    ``(kind, reason)`` fallbacks and the chain lengths it recorded in order."""
    segments: dict[int, list[PlanNode]] = {}
    fallbacks: list[tuple[str, str]] = []
    lengths: list[int] = []

    def analyze(node: PlanNode) -> None:
        reason = compiler.fallback_reason(node)
        if reason is not None:
            if node.kind not in ("alerter", "existing"):
                fallbacks.append((node.kind, reason))
            for child in node.children:
                analyze(child)
            return
        chain, cursor = [node], node
        while cursor.kind != FILTER:
            below = cursor.children[0]
            if compiler.fallback_reason(below) is not None or below.placement != cursor.placement:
                break
            chain.append(below)
            cursor = below
        chain.reverse()
        segments[id(node)] = chain
        lengths.append(len(chain))
        for child in chain[0].children:
            analyze(child)

    analyze(plan)
    return segments, fallbacks, lengths


def frozen_prepare(system: P2PMSystem, template, manager_peer: str, avoid: frozenset[str]) -> tuple:
    """instantiate -> place_plan (live load) -> unplaced_nodes -> plan_segments -> compile_segment."""
    plan = template.instantiate()
    place_plan(plan, manager_peer=manager_peer, load=system.placement_load, avoid=avoid)
    assert plan.unplaced_nodes() == []
    segments, fallbacks, lengths = frozen_segments(system.compiler, plan)
    programs = {key: system.compiler.compile_segment(chain) for key, chain in segments.items()}
    return plan, segments, programs, fallbacks, lengths


def chains_of(segments: dict, programs: dict) -> list:
    """Each segment in analysis order: its nodes as plain data and its program's signatures."""
    return [
        (
            [(node.kind, node.placement, plan_signature(node)) for node in chain],
            [(stage.kind, stage.signature) for stage in programs[key]],
        )
        for key, chain in segments.items()
    ]


@st.composite
def texts(draw) -> str:
    peers = draw(st.lists(st.sampled_from(SOURCES), min_size=1, max_size=3, unique=True))
    text = f"for $x in {CHAOS_FUNCTION}({''.join(f'<p>{peer}</p>' for peer in peers)})"
    conditions = draw(st.lists(st.sampled_from(CONDITIONS), max_size=2, unique=True))
    if conditions:
        text += " where " + " and ".join(conditions)
    output = draw(st.sampled_from(("<seen><n>{$x.n}</n></seen>", '<hit src="{$x.source}"/>', "$x")))
    return f"{text} return {'distinct ' if draw(st.booleans()) else ''}{output}"


avoid_sets = st.frozensets(st.sampled_from(PEERS), max_size=2)
loads = st.dictionaries(st.sampled_from(PEERS), st.integers(0, 5), max_size=3)


@settings(max_examples=120, deadline=None)
@given(texts(), st.sampled_from(MANAGERS), avoid_sets, loads, st.booleans())
def test_a_recipe_is_what_the_old_path_prepared(text, manager_peer, avoid, load, push_selections):
    template = _build_template(parse_subscription(text), push_selections)
    old, new = P2PMSystem(seed=1), P2PMSystem(seed=1)
    old.placement_load.update(load)
    new.placement_load.update(load)
    manager = new.add_peer(manager_peer).manager

    plan, segments, programs, fallbacks, lengths = frozen_prepare(old, template, manager_peer, avoid)
    recipe = manager._recipe(template, avoid)
    for peer_id, count in recipe.charges:  # what each stamp adds
        new.placement_load[peer_id] = new.placement_load.get(peer_id, 0) + count

    assert recipe.plan.describe() == plan.describe()
    assert [plan_signature(node) for node in recipe.plan.iter_nodes()] == [
        plan_signature(node) for node in plan.iter_nodes()
    ]
    assert chains_of({key: chain for key, (chain, _) in recipe.segments.items()},
                     {key: program for key, (_, program) in recipe.segments.items()}) == chains_of(segments, programs)
    assert recipe.tally == (len(lengths), sum(lengths), tuple(fallbacks))
    assert all(reason in FALLBACK_REASONS.values() for _, reason in fallbacks)
    assert new.placement_load == old.placement_load
    # a template placement reads no load from keeps one recipe per peer
    if template.recipes is not None:
        assert manager._recipe(template, avoid) is recipe
        assert template.recipes == {manager_peer: recipe}


def build_system() -> P2PMSystem:
    system = P2PMSystem(seed=4)
    for peer_id in PEERS:
        system.add_peer(peer_id)
    return system


def frozen_submit(system: P2PMSystem, text: str, manager_peer: str, sub_id: str, stats: dict) -> Subscription:
    """A ``reuse=False`` submit as it was: a fresh placed copy deployed on its
    own; ``stats`` counts what its segment analysis recorded."""
    manager = system.peer(manager_peer).manager
    template = manager._template_for(text, True)
    plan, _, _, fallbacks, lengths = frozen_prepare(system, template, manager_peer, system.avoid_peers())
    stats["segments_fused"] += len(lengths)
    stats["stages_fused"] += sum(lengths)
    for kind, reason in fallbacks:
        stats["fallbacks"].setdefault(kind, {}).setdefault(reason, 0)
        stats["fallbacks"][kind][reason] += 1
    record = Subscription(sub_id, template=template, plan=plan, manager_peer=manager_peer)
    manager.database.add(record)
    record.task = Deployer(system).deploy(plan, record)
    manager.database.mark(sub_id, DEPLOYED)
    return record


def deployed_state(system: P2PMSystem) -> tuple:
    return (
        system.stream_db.all_stream_descriptions(),
        sorted(map(repr, system.resources.keys())),
        system.placement_load,
        system.stream_db.verify_index_coherence(),
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(texts(), st.sampled_from(MANAGERS)), min_size=1, max_size=6),
    st.sampled_from((None, "c.com", "m2")),
)
def test_stamped_deployments_describe_and_hold_what_fresh_copies_did(program, down):
    old, new = build_system(), build_system()
    if down is not None:  # placement avoids it, on both
        old.fail_peer(down)
        new.fail_peer(down)
    handles = []
    stats: dict = {"segments_fused": 0, "stages_fused": 0, "fallbacks": {}}
    for index, (text, manager_peer) in enumerate(program):
        if manager_peer == down:
            continue
        record = frozen_submit(old, text, manager_peer, f"q{index}", stats)
        handle = new.peer(manager_peer).subscribe(text, sub_id=f"q{index}", reuse=False)
        assert handle.plan.describe() == record.task.plan.describe()
        handles.append((handle, record))
    old.run()
    new.run()
    assert deployed_state(new) == deployed_state(old)
    assert deployed_state(new)[-1] == []
    snapshot = new.compile_stats.snapshot()
    assert {name: snapshot[name] for name in stats} == {**stats, "fallbacks": {
        kind: dict(sorted(reasons.items())) for kind, reasons in sorted(stats["fallbacks"].items())}}
    for handle, record in handles:
        handle.cancel()
        record.task.teardown()
        record.valve.disconnect()
    assert len(new.resources) == len(old.resources) == 0


# -- (b) immutability --------------------------------------------------------------------------


def snapshot(plan: PlanNode) -> list:
    """Every node of ``plan`` as it stands: identities, kind, placement, memos, each
    parameter's value object and the children list."""
    return [
        (
            id(node), node.kind, node.placement, node._detail, node._spec,
            id(node.params), [(name, id(value)) for name, value in node.params.items()],
            id(node.children), [id(child) for child in node.children],
        )
        for node in plan.iter_nodes()
    ]


def single_source_text(channel: str | None = None) -> str:
    by = f' by publish as channel "{channel}"' if channel else ""
    return (
        f'for $x in {CHAOS_FUNCTION}(<p>a.com</p>) where $x.kind = "chaos" '
        f"return <seen><n>{{$x.n}}</n></seen>{by}"
    )


def test_deployments_share_one_placed_tree_and_leave_it_and_the_template_untouched():
    system = build_system()
    monitor = system.peer("m1")
    text = single_source_text()
    handles = [monitor.subscribe(text, sub_id=f"s{i}", reuse=False) for i in range(4)]
    system.run()
    template = system.plan_templates[text, True]
    (recipe,) = template.recipes.values()
    assert {id(handle.plan) for handle in handles} == {id(recipe.plan)}
    nodes = [[id(node) for node, _, _ in handle.task.outputs] for handle in handles]
    assert nodes[1:] == nodes[:-1]  # every deployment's streams come from the same node objects
    assert len({stream for handle in handles for _, _, stream in handle.task.outputs}) == 2 * len(handles)
    template_before, recipe_before = snapshot(template.plan), snapshot(recipe.plan)
    assert all(node.placement is None for node in template.plan.iter_nodes() if node.kind != "alerter")

    got: list[str] = []
    handles[0].on_result(lambda item: got.append(item.find("n").text))
    alerter = system.peer("a.com").get_or_create_alerter(CHAOS_FUNCTION)
    alerter.emit_numbered(1)
    system.run()
    handles[1].pause()
    handles[1].resume()
    handles[2].cancel()
    # recovery: the source fails (the subscriptions wait), then revives
    system.fail_peer("a.com")
    assert {handle.status for handle in (handles[0], handles[1], handles[3])} == {"recovering"}
    system.revive_peer("a.com")
    system.run()
    assert handles[0].status == "deployed" and handles[0]._record.epoch == 1
    alerter = system.peer("a.com").get_or_create_alerter(CHAOS_FUNCTION)
    alerter.emit_numbered(2)
    system.run()
    assert got == ["1", "2"]
    # a redeploy places a one-off copy of the template; the shared tree stays the stamps'
    assert handles[0].plan is not recipe.plan
    assert snapshot(template.plan) == template_before
    assert snapshot(recipe.plan) == recipe_before
    # a new subscriber still stamps the same recipe
    later = monitor.subscribe(text, sub_id="later", reuse=False)
    assert later.plan is recipe.plan
    for handle in (*handles, later):
        handle.cancel()
    assert snapshot(template.plan) == template_before and snapshot(recipe.plan) == recipe_before
    assert len(system.resources) == 0 and system.compiler.groups == {}


def test_a_one_off_recipe_is_built_for_every_load_placed_plan():
    system = build_system()
    text = f'for $x in {CHAOS_FUNCTION}(<p>a.com</p><p>b.com</p>) return <seen>{{$x.n}}</seen>'
    first = system.peer("m1").subscribe(text, reuse=False)
    second = system.peer("m1").subscribe(text, reuse=False)
    template = system.plan_templates[text, True]
    assert template.recipes is None  # a UNION is placed by the load
    assert first.plan is not second.plan
    assert all(node.placement is None for node in template.plan.iter_nodes() if node.kind != "alerter")


def test_a_plan_deployed_bare_gets_a_one_off_recipe():
    system = build_system()
    template = system.peer("m1").manager._template_for(single_source_text(), True)
    plan = template.instantiate()
    with pytest.raises(ValueError, match="no placement"):
        Deployer(system).deploy(plan, Subscription("bare", manager_peer="m1"))
    assert len(system.resources) == 0
    place_plan(plan, manager_peer="m1")
    recipe = DeploymentRecipe(plan, system.compiler)
    assert recipe.charges == () and recipe.plan is plan
    record = Subscription("bare", manager_peer="m1")
    record.task = Deployer(system).deploy(recipe, record)
    assert record.task.plan is plan and record.task.operator_count == 1
    record.task.teardown()
    assert len(system.resources) == 0


# -- (c) the bound -------------------------------------------------------------------------------


def test_the_recipe_table_is_cleared_wholesale_at_its_bound(monkeypatch):
    monkeypatch.setattr(manager_module, "RECIPE_TABLE_LIMIT", 2)
    system = build_system()
    text = single_source_text()
    sizes = []
    for manager_peer in ("m1", "m2", "b.com", "m1"):
        system.peer(manager_peer).subscribe(text, reuse=False)
        sizes.append(len(system.plan_templates[text, True].recipes))
    assert sizes == [1, 2, 1, 2]
    assert set(system.plan_templates[text, True].recipes) == {"b.com", "m1"}


def test_one_recipe_serves_every_avoid_set():
    """Without a JOIN or a UNION a node goes where its input is, avoided or
    not: a suspected peer set of its own builds no recipe of its own."""
    system = build_system()
    manager = system.peer("m1").manager
    template = manager._template_for(single_source_text(), True)
    avoid_sets = (frozenset(), frozenset({"a.com"}), frozenset({"m1"}), frozenset({"a.com", "m1"}))
    recipes = [manager._recipe(template, avoid) for avoid in avoid_sets]
    assert all(recipe is recipes[0] for recipe in recipes)
    assert template.recipes == {"m1": recipes[0]}
    for avoid in avoid_sets:  # and it is what placing under each of them gives
        plan = template.instantiate()
        place_plan(plan, manager_peer="m1", avoid=avoid)
        assert plan.describe() == recipes[0].plan.describe()
