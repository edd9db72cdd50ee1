"""Differential suite: the plan compiler pinned to the interpreted reference.

The interpreted σ/Π operator chain used to be the reference engine; it is
gone, and what it produced is frozen in ``tests/data/interpreted_golden.json``
-- captured at the last commit that still carried it, by running exactly the
case functions below with the interpreted engine forced on every
``P2PMSystem`` (see the file's ``provenance`` entry).  The only engine must
reproduce that table byte for byte:

* trace fingerprint and delivered sequence of every catalog chaos scenario
  at seed 0, plus lossy-network / worker-crash at seeds 7 and 42;
* the meteo incidents and edos failures, the tree-pattern subscription, and
  JOIN / GROUP fed by a fused pipeline, as serialized XML;
* reuse of a dark pipeline boundary and cancellation under reuse.

The 4 pinned oracle fingerprints of test_e2e_fastpath hold verbatim, and the
fused tree predicate is checked against the extensional oracle, which shares
no code with the compiled path.
"""

import json
import random
from pathlib import Path

import pytest

from repro.algebra.plan import ALERTER, FILTER, GROUP, RESTRUCTURE, PlanNode
from repro.algebra.template import RestructureTemplate
from repro.filtering.conditions import FilterSubscription, SimpleCondition
from repro.monitor import P2PMSystem
from repro.monitor.deployment import Deployer
from repro.monitor.subscription import Subscription
from repro.scenarios import make_scenario, scenario_names
from repro.streams import Stream
from repro.workloads import EdosNetwork, MeteoScenario
from repro.workloads.chaos_feed import CHAOS_FUNCTION
from repro.workloads.soap_traffic import SoapCall
from repro.xmlmodel import XPath
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.tree import Element

GOLDEN_PATH = Path(__file__).parent / "data" / "interpreted_golden.json"

#: The golden traces pinned by test_e2e_fastpath (oracle failure mode),
#: duplicated here on purpose so a re-pin over there cannot silently loosen
#: this suite.
PINNED_GOLDEN = {
    ("flaky-network", 0): (
        "36517f09c0087bb62f8357b9b4158556e064a82c8ec635e88b27cedec60e1735"
    ),
    ("partition-heal", 7): (
        "14fb7e0c7bb6665befab9b72dc3146d628bc4f1001c904aea5be50afd4c55563"
    ),
    ("lossy-network", 0): (
        "1dfc3881162bba9eefbf37cebb15a79fdeaf63450b9abd9d633d7dbca238dcdf"
    ),
    ("churn-soak", 42): (
        "565f029688872909c37a570a84c22de1e8a52bd59ad638e33dd0ca9ab1466d30"
    ),
}

#: (scenario, seed) pairs frozen in the golden table: the whole catalog at
#: seed 0, plus the two scenarios whose crash recovery / message loss
#: reshuffle delivery orders at two more seeds.
SCENARIO_CASES = [(name, 0) for name in scenario_names()] + [
    ("lossy-network", 7),
    ("lossy-network", 42),
    ("worker-crash", 7),
    ("worker-crash", 42),
]


# -- the cases: each returns JSON-shaped data ------------------------------------


def scenario_case(name: str, seed: int) -> dict:
    result = make_scenario(name, seed=seed).run()
    return {
        "ok": result.ok,
        "fingerprint": result.fingerprint,
        "received": [list(pair) for pair in result.received],
    }


def meteo_incidents() -> list[str]:
    scenario = MeteoScenario(threshold=10.0, slow_fraction=0.2, seed=11)
    scenario.deploy()
    scenario.run_traffic(300)
    return [to_xml(item) for item in scenario.incidents()]


def edos_failures() -> list[str]:
    system = P2PMSystem(seed=23)
    edos = EdosNetwork(n_mirrors=2, n_clients=10, failure_rate=0.3, seed=23)
    for mirror in edos.mirrors:
        peer = system.add_peer(mirror)
        peer.add_alerter_hook(
            lambda alerter: edos.attach_alerter(alerter)
            if hasattr(alerter, "observe_call")
            else None
        )
    monitor = system.add_peer("monitor.edos.org")
    task = monitor.subscribe(
        """
        for $c in inCOM(<p>mirror0.edos.org</p> <p>mirror1.edos.org</p>)
        where $c.callMethod = "DownloadPackage" and $c.status = "fault"
        return <failure><mirror>{$c.callee}</mirror><client>{$c.caller}</client></failure>
        by publish as channel "edosFailures";
        """,
        sub_id="edos-failures",
        max_results=4096,
    )
    system.run()
    edos.run(400)
    system.run()
    return [to_xml(item) for item in task.results()]


def _single_peer() -> tuple:
    system = P2PMSystem(seed=1)
    peer = system.add_peer("solo")
    return system, peer


def _chaos_subscription(peer, sub_id: str, template: str, threshold: int = 1):
    text = (
        f'for $x in {CHAOS_FUNCTION}(<p>solo</p>) '
        f'where $x.kind = "chaos" and $x.n >= {threshold} return {template}'
    )
    got: list[str] = []
    handle = peer.subscribe(text, sub_id=sub_id)
    handle.on_result(lambda item, bucket=got: bucket.append(to_xml(item)))
    return handle, got


def _chaos_alerts(numbers) -> list[Element]:
    return [
        Element("alert", {"kind": "chaos", "source": "solo", "n": str(n)})
        for n in numbers
    ]


def dark_boundary_reuse() -> list[list[str]]:
    # a second subscription reusing the (dark) intermediate filter stream
    # must receive every later item
    system, peer = _single_peer()
    _, got_a = _chaos_subscription(peer, "qa", "<seen><n>{$x.n}</n></seen>")
    system.run()
    alerter = peer.alerter(CHAOS_FUNCTION)
    for n in range(5):
        alerter.emit_numbered(n)
    system.run()
    _, got_b = _chaos_subscription(peer, "qb", "<other><n>{$x.n}</n></other>")
    system.run()
    for n in range(5, 10):
        alerter.emit_numbered(n)
    system.run()
    return [got_a, got_b]


def cancel_under_reuse() -> list[list[str]]:
    system, peer = _single_peer()
    handle_a, got_a = _chaos_subscription(peer, "qa", "<seen><n>{$x.n}</n></seen>")
    system.run()
    alerter = peer.alerter(CHAOS_FUNCTION)
    for n in range(3):
        alerter.emit_numbered(n)
    system.run()
    _, got_b = _chaos_subscription(peer, "qb", "<other><n>{$x.n}</n></other>")
    system.run()
    handle_a.cancel()
    system.run()
    for n in range(3, 6):
        alerter.emit_numbered(n)
    system.run()
    return [got_a, got_b]


def _run_tree_subscription():
    system, peer = _single_peer()
    text = (
        'for $c in outCOM(<p>solo</p>) '
        'where $c.callMethod = "Invoice" and $c/alert/Envelope/Body '
        "and $c/alert/error "
        "return <bad><callee>{$c.callee}</callee></bad>"
    )
    got: list[str] = []
    handle = peer.subscribe(text, sub_id="tp0")
    handle.on_result(lambda item: got.append(to_xml(item)))
    system.run()
    alerter = peer.alerter("outCOM")
    for index in range(12):
        alerter.observe_call(
            SoapCall(
                call_id=f"c{index}",
                caller="solo",
                callee="tele.com",
                method="Invoice" if index % 2 == 0 else "GetTemperature",
                call_timestamp=float(index),
                response_timestamp=float(index) + 0.5,
                status="fault" if index % 3 == 0 else "ok",
                parameters={"k": str(index)},
            )
        )
    system.run()
    return system, handle, got


def tree_pattern_outputs() -> list[str]:
    return _run_tree_subscription()[2]


JOIN_TEXT = (
    f'for $x in {CHAOS_FUNCTION}(<p>solo</p>), '
    f'$y in {CHAOS_FUNCTION}(<p>solo</p>) '
    'where $x.kind = "chaos" and $x.n >= 2 and $x.n = $y.n '
    "return <pair><n>{$x.n}</n><m>{$y.n}</m></pair>"
)


def join_after_pipeline(batch: bool) -> list[str]:
    system, peer = _single_peer()
    got: list[str] = []
    handle = peer.subscribe(JOIN_TEXT, sub_id="j0")
    handle.on_result(lambda item: got.append(to_xml(item)))
    system.run()
    alerter = peer.alerter(CHAOS_FUNCTION)
    if batch:
        alerter.output.emit_many(_chaos_alerts(range(8)))
    else:
        for n in range(8):
            alerter.emit_numbered(n)
    system.run()
    return got


def _filter_node(subscription, children) -> PlanNode:
    return PlanNode(
        FILTER, {"subscription": subscription, "var": "x"}, children, placement="solo"
    )


def _chaos_alerter_node() -> PlanNode:
    return PlanNode(ALERTER, {"alerter": CHAOS_FUNCTION}, [], placement="solo")


def _deploy(system: P2PMSystem, plan: PlanNode, sub_id: str, manager_peer: str = "solo"):
    """Deploy a hand-built plan through the same Deployer the manager uses;
    returns the subscription record, whose valve delivers the results."""
    record = Subscription(sub_id, manager_peer=manager_peer)
    record.task = Deployer(system).deploy(plan, record)
    return record


def group_after_pipeline() -> list[str]:
    # GROUP has no P2PML surface syntax: deploy a programmatic plan through
    # the same Deployer the manager uses
    system, peer = _single_peer()
    subscription = FilterSubscription("g0", [SimpleCondition("kind", "=", "chaos")], [])
    plan = PlanNode(
        GROUP,
        {"key": "n", "every": 4, "var": "x"},
        [_filter_node(subscription, [_chaos_alerter_node()])],
        placement="solo",
    )
    record = _deploy(system, plan, "g0")
    got: list[str] = []
    record.valve.subscribe(lambda item: got.append(to_xml(item)))
    system.run()
    alerter = peer.alerter(CHAOS_FUNCTION)
    for n in range(10):
        alerter.emit_numbered(n % 3)
    system.run()
    return got


#: golden-table key -> the function that recomputes its value
CASES = {
    **{
        f"scenario/{name}/seed{seed}": (lambda n=name, s=seed: scenario_case(n, s))
        for name, seed in SCENARIO_CASES
    },
    "meteo/seed11/incidents": meteo_incidents,
    "edos/seed23/failures": edos_failures,
    "pipeline/dark-boundary-reuse": dark_boundary_reuse,
    "pipeline/cancel-under-reuse": cancel_under_reuse,
    "pipeline/tree-pattern": tree_pattern_outputs,
    "pipeline/join/item": lambda: join_after_pipeline(batch=False),
    "pipeline/join/batch": lambda: join_after_pipeline(batch=True),
    "pipeline/group": group_after_pipeline,
}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


# -- the tests -------------------------------------------------------------------


class TestInterpretedGolden:
    def test_table_and_cases_cover_each_other(self):
        assert sorted(load_golden()) == sorted(CASES)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_only_engine_reproduces_interpreted_reference(self, case: str):
        expected = load_golden()[case]
        assert expected, "a golden case without output checks nothing"
        assert CASES[case]() == expected

    @pytest.mark.parametrize("name,seed", sorted(PINNED_GOLDEN))
    def test_pinned_oracle_goldens_hold(self, name: str, seed: int):
        result = make_scenario(name, seed=seed, failure_mode="oracle").run()
        assert result.ok, [inv for inv in result.invariants if not inv.ok]
        assert result.fingerprint == PINNED_GOLDEN[(name, seed)]


class TestFusedPipelines:
    def test_filter_restructure_fuses_into_one_segment(self):
        system, peer = _single_peer()
        handle, got = _chaos_subscription(peer, "q0", "<seen><n>{$x.n}</n></seen>")
        system.run()
        pipelines = system.compiled_pipelines()
        assert len(pipelines) == 1
        assert [stage.kind for stage in pipelines[0].stages] == [FILTER, RESTRUCTURE]
        alerter = peer.alerter(CHAOS_FUNCTION)
        for n in range(10):
            alerter.emit_numbered(n)
        system.run()
        assert len(got) == 9  # n >= 1 filters out n=0
        assert pipelines[0].items_in == 10  # offered to the segment, rejected or not
        assert pipelines[0].items_out == 9
        handle.cancel()
        alerter.emit_numbered(10)
        assert pipelines[0].items_in == 10  # frozen when the head left its group
        # the intermediate filter boundary is dark: fused straight through
        stats = handle.stats()["compile"]
        assert stats["segments_fused"] == 1
        assert stats["stages_fused"] == 2

    def test_cse_shares_restructure_across_subscriptions(self):
        system, peer = _single_peer()
        _, got_a = _chaos_subscription(
            peer, "qa", "<seen><n>{$x.n}</n></seen>", threshold=0
        )
        _, got_b = _chaos_subscription(
            peer, "qb", "<seen><n>{$x.n}</n></seen>", threshold=1
        )
        system.run()
        alerter = peer.alerter(CHAOS_FUNCTION)
        for n in range(20):
            alerter.emit_numbered(n)
        system.run()
        assert len(got_a) == 20 and len(got_b) == 19
        assert system.materialized.hits > 0, (
            "identical templates across subscriptions must share evaluations"
        )

    def test_cancelled_deployer_keeps_shared_pipeline_listed(self):
        # regression: qb reuses qa's FILTER stream, so cancelling qa tears
        # down only the RESTRUCTURE stage -- the half-detached pipeline still
        # runs the filter for qb and must stay visible
        system, peer = _single_peer()
        handle_a, _ = _chaos_subscription(peer, "qa", "<seen><n>{$x.n}</n></seen>")
        system.run()
        _, got_b = _chaos_subscription(peer, "qb", "<other><n>{$x.n}</n></other>")
        system.run()
        handle_a.cancel()
        system.run()
        peer.alerter(CHAOS_FUNCTION).emit_numbered(3)
        system.run()
        assert got_b == ["<other><n>3</n></other>"]
        pipelines = system.compiled_pipelines()
        assert sorted(p.sub_id for p in pipelines) == ["qa", "qb"]
        assert not any(p.detached for p in pipelines)
        assert system.compile_snapshot()["pipelines_active"] == 2
        assert "pipeline sub=qa @solo [live]" in system.compile_report()

    def test_a_filter_always_heads_its_segment(self):
        # FILTER over FILTER, and FILTER over RESTRUCTURE: both used to fuse
        # into one chain; now every FILTER is evaluated by its input stream's
        # group, so it starts a segment of its own
        system, peer = _single_peer()
        inner = FilterSubscription("in", [SimpleCondition("kind", "=", "chaos")], [])
        outer = FilterSubscription("out", [SimpleCondition("n", ">=", "2")], [])
        template = RestructureTemplate(Element("seen", {"n": "{$x.n}"}))
        first = _filter_node(inner, [_chaos_alerter_node()])
        shaped = PlanNode(RESTRUCTURE, {"template": template, "var": "x"}, [first], placement="solo")
        second = _filter_node(
            FilterSubscription("late", [SimpleCondition("n", "!=", "9")], []), [shaped]
        )
        stacked = _filter_node(outer, [_filter_node(inner, [_chaos_alerter_node()])])
        for plan, expected in [(second, [[FILTER], [FILTER, RESTRUCTURE]]),
                               (stacked, [[FILTER], [FILTER]])]:
            chains = system.compiler.plan_segments(plan).values()
            assert [[node.kind for node in chain] for chain in chains] == expected
        record = _deploy(system, stacked, "st")
        got: list[str] = []
        record.valve.subscribe(
            lambda item: got.append(item.attrib["n"]) if isinstance(item, Element) else None
        )
        alerter = peer.alerter(CHAOS_FUNCTION)
        for n in range(4):
            alerter.emit_numbered(n)
        alerter.output.emit_many(_chaos_alerts(range(4, 6)))
        assert got == ["2", "3", "4", "5"]
        # one group on the alerter's stream, one on the inner filter's output
        assert len(system.compiler.groups) == 2
        record.task.teardown()
        assert system.compiler.groups == {} and len(system.resources) == 0

    def test_a_cross_peer_edge_splits_the_segment(self):
        # placement never splits FILTER from its RESTRUCTURE, so the split is
        # reached by hand: FILTER@solo -> RESTRUCTURE@far
        def deploy(restructure_peer: str):
            system = P2PMSystem(seed=1)
            system.add_peer("solo")
            system.add_peer("far")
            conditions = [SimpleCondition("kind", "=", "chaos"), SimpleCondition("n", ">=", "2")]
            plan = PlanNode(
                RESTRUCTURE,
                {"template": RestructureTemplate(Element("seen", {"n": "{$x.n}"})), "var": "x"},
                [_filter_node(FilterSubscription("x0", conditions, []), [_chaos_alerter_node()])],
                placement=restructure_peer,
            )
            record = _deploy(system, plan, "x0", manager_peer=restructure_peer)
            system.run()
            got: list[str] = []
            record.valve.subscribe(
                lambda item: got.append(to_xml(item)) if isinstance(item, Element) else None
            )
            alerter = system.peer("solo").alerter(CHAOS_FUNCTION)
            for n in range(4):
                alerter.emit_numbered(n)
            alerter.output.emit_many(_chaos_alerts(range(4, 7)))
            system.run()
            segments = [
                (pipeline.describe()["peer"], [stage.kind for stage in pipeline.stages])
                for pipeline in system.compiled_pipelines()
            ]
            # channel subscriptions, as (consumer, producer)
            channels = [key[1:3] for key in system.resources.keys() if len(key) == 4]
            record.task.teardown()
            system.run()
            assert len(system.resources) == 0 and system.compiler.groups == {}
            return segments, channels, system.compile_snapshot()["fallbacks"], got

        split, split_channels, split_fallbacks, split_got = deploy("far")
        together, channels, fallbacks, together_got = deploy("solo")
        assert split == [("far", [RESTRUCTURE]), ("solo", [FILTER])]
        assert split_channels == [("far", "solo")]
        assert together == [("solo", [FILTER, RESTRUCTURE])] and channels == []
        assert split_fallbacks == fallbacks  # a split is not a fallback
        assert split_got == together_got == [f'<seen n="{n}"/>' for n in range(2, 7)]

    def test_compile_report_is_printable(self):
        system, peer = _single_peer()
        _chaos_subscription(peer, "q0", "<seen><n>{$x.n}</n></seen>")
        system.run()
        assert "segments fused" in system.compile_report()

    @pytest.mark.parametrize("defect", ["two-children", "no-subscription"])
    def test_malformed_filter_node_is_rejected_at_deploy(self, defect: str):
        system, _ = _single_peer()
        subscription = FilterSubscription("m0", [SimpleCondition("kind", "=", "chaos")], [])
        if defect == "two-children":
            plan = _filter_node(subscription, [_chaos_alerter_node(), _chaos_alerter_node()])
        else:
            plan = _filter_node(None, [_chaos_alerter_node()])
        with pytest.raises(ValueError, match="filter"):
            _deploy(system, plan, "m0")
        assert len(system.resources) == 0


def _soap_alert_items(n: int, seed: int = 5) -> list[Element]:
    """Soap-style alerts with children: the tree-pattern differential corpus."""
    from repro.alerters.ws import soap_alert

    rng = random.Random(seed)
    methods = ["GetTemperature", "GetHumidity", "Invoice"]
    items = []
    for index in range(n):
        call = SoapCall(
            call_id=f"c{index}",
            caller=rng.choice(["solo", "client.net"]),
            callee=rng.choice(["meteo.com", "tele.com"]),
            method=rng.choice(methods),
            call_timestamp=float(index),
            response_timestamp=float(index) + rng.random(),
            status="fault" if rng.random() < 0.4 else "ok",
            parameters={"k": str(index)} if rng.random() < 0.7 else {},
        )
        items.append(soap_alert(call, "out"))
    return items


class TestTreePatternFusion:
    TREE_PATHS = [
        "//Body",
        "//error",
        "//Envelope/Body",
        "//Body//param",
        "/alert/Envelope",
        "/alert/error",
    ]

    def test_group_tree_verdicts_match_extensional_oracle(self):
        rng = random.Random(3)
        items = _soap_alert_items(60)
        methods = ["GetTemperature", "GetHumidity", "Invoice"]
        system, _ = _single_peer()
        stream = Stream("src")
        subscriptions = []
        got: dict[str, list] = {}
        for index in range(40):
            simple = [SimpleCondition("callMethod", "=", rng.choice(methods))]
            if rng.random() < 0.5:
                simple.append(SimpleCondition("status", "=", "fault"))
            queries = [XPath.compile(rng.choice(self.TREE_PATHS))]
            if rng.random() < 0.4:
                queries.append(XPath.compile(rng.choice(self.TREE_PATHS)))
            subscription = FilterSubscription(f"t{index}", simple, queries)
            subscriptions.append(subscription)
            sink = got.setdefault(subscription.sub_id, [])

            def entry(item, sink=sink) -> None:
                sink.append(item)

            entry.batch = None  # the per-item path only
            node = _filter_node(subscription, [_chaos_alerter_node()])
            (stage,) = system.compiler.compile_segment([node], epoch=0)
            system.compiler.filter_group(stream, system.peer("solo")).join(
                stage.signature, subscription, entry
            )
        for item in items:
            stream.emit(item)
        for subscription in subscriptions:
            assert got[subscription.sub_id] == [
                item for item in items if subscription.matches_extensionally(item)
            ], f"{subscription.sub_id}: group verdicts diverge from the extensional oracle"

    def test_tree_pattern_subscription_fuses(self):
        system, handle, _ = _run_tree_subscription()
        # the complex-query FILTER fuses: one pipeline, no FILTER fallback,
        # and the tree-pattern expressions in the stage signature
        pipelines = system.compiled_pipelines()
        assert len(pipelines) == 1
        assert [stage.kind for stage in pipelines[0].stages] == [FILTER, RESTRUCTURE]
        assert "$c/alert/Envelope/Body" in pipelines[0].stages[0].signature
        stats = handle.stats()["compile"]
        assert stats["fallbacks"].get(FILTER) is None
        assert stats["segments_fused"] == 1


class TestCompileStats:
    def test_stage_invocation_counters_split_batch_and_item(self):
        system, peer = _single_peer()
        got: list[str] = []
        handle = peer.subscribe(
            f'for $x in {CHAOS_FUNCTION}(<p>solo</p>) '
            'where $x.kind = "chaos" return <seen><n>{$x.n}</n></seen>',
            sub_id="q0",
        )
        handle.on_result(lambda item: got.append(to_xml(item)))
        system.run()
        alerter = peer.alerter(CHAOS_FUNCTION)
        alerter.emit_numbered(0)
        alerter.output.emit_many(_chaos_alerts(range(1, 6)))
        system.run()
        assert len(got) == 6
        # FILTER counts once per group and item or burst, RESTRUCTURE once
        # per pipeline it ran in
        invocations = handle.stats()["compile"]["stage_invocations"]
        assert invocations == {"item": 2, "batch": 2, "batch_items": 10}
        twin = peer.subscribe(
            f'for $x in {CHAOS_FUNCTION}(<p>solo</p>) '
            'where $x.kind = "chaos" return <seen><n>{$x.n}</n></seen>',
            sub_id="q1",
            reuse=False,
        )
        alerter.emit_numbered(6)
        alerter.output.emit_many(_chaos_alerts(range(7, 10)))
        invocations = twin.stats()["compile"]["stage_invocations"]
        assert invocations == {"item": 2 + 3, "batch": 2 + 3, "batch_items": 10 + 9}
        # offered, not matched: q1 joined after the first six items
        assert [p.items_in for p in system.compiled_pipelines()] == [10, 4]

    def test_report_fallback_lines_sorted_and_unique(self):
        system, peer = _single_peer()
        for index in range(3):
            peer.subscribe(
                f'for $x in {CHAOS_FUNCTION}(<p>solo</p>) '
                'where $x.kind = "chaos" return <seen><n>{$x.n}</n></seen> '
                f'by publish as channel "chan{index}";',
                sub_id=f"q{index}",
            )
        system.run()
        snapshot = system.compiler.stats.snapshot()
        kinds = list(snapshot["fallbacks"])
        assert kinds == sorted(kinds)
        for reasons in snapshot["fallbacks"].values():
            assert list(reasons) == sorted(reasons)
        report = system.compile_report()
        fallback_lines = [
            line for line in report.splitlines() if line.startswith("fallback ")
        ]
        assert fallback_lines == sorted(fallback_lines)
        assert len(fallback_lines) == len(set(fallback_lines))
        # the three identical publish fallbacks aggregate into one line
        assert "fallback publish: delivery-root x3" in report
