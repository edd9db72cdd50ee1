"""A cached reuse rewrite is invalidated only by what its visit read.

The Reuse algorithm decides every plan node from the answers to the match
probes it issues, so the signature cache keeps a rewrite while none of those
answers changed: a filing or deindexing stamps the probe keys it answers
(``stream_db.watched``), and an entry holds while its database version is
current or none of its probe keys was stamped after it.

Unit cases pin each side of that rule on a bare database; a hit builds no
plan instance.  The generated differential drives whole systems through
``subscribe_many`` / ``cancel`` interleavings and holds every cached pass to
an uncached visit of a fresh instance on the same database state, and to the
old rule (one global version): wherever it would have hit, the cache hits.
A pass that stamps its recipe slot hands back the recipe's placed tree, so
there the reference is placed too and placements are compared.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads.chaos_feed  # noqa: F401 - registers the chaosFeed alerter
from repro.algebra.plan import ALERTER, EXISTING, FILTER, PUBLISH, PlanNode
from repro.filtering import FilterSubscription, SimpleCondition
from repro.monitor import P2PMSystem, ReuseEngine, StreamDefinitionDatabase
from repro.monitor.placement import place_plan
from repro.monitor.reuse import ReuseSignatureCache
from repro.p2pml.compiler import PlanTemplate
from repro.workloads.chaos_feed import CHAOS_FUNCTION


def alerter(peer="a.com", kind="outCOM"):
    return PlanNode(ALERTER, {"alerter": kind, "peer": peer, "var": "c1"}, placement=peer)


def filter_over(child, value="GetTemperature"):
    sub = FilterSubscription("f", [SimpleCondition("callMethod", "=", value)])
    return PlanNode(FILTER, {"subscription": sub, "var": "c1"}, [child])


def plan(value="GetTemperature", peer="a.com"):
    return PlanNode(PUBLISH, {"mode": "local", "target": "t"}, [filter_over(alerter(peer), value)])


def cached_engine(db):
    cache = ReuseSignatureCache()
    return ReuseEngine(db, signature_cache=cache), cache


def existing_streams(rewritten):
    return [(node.params["peer"], node.params["stream_id"]) for node in rewritten.find_all(EXISTING)]


class TestWhatInvalidates:
    def setup_method(self):
        self.db = StreamDefinitionDatabase()
        self.db.publish_node(alerter(), "a.com", "outCOM", [])
        self.engine, self.cache = cached_engine(self.db)
        _, report = self.engine.apply(plan())
        assert not report.cache_hit and report.nodes_reused == 1

    def test_another_spec_over_the_same_operands_is_a_hit(self):
        version = self.db.reuse_version
        self.db.publish_node(filter_over(alerter(), "Other"), "a.com", "f2", [("a.com", "outCOM")])
        assert self.db.reuse_version > version  # the old global rule misses here
        rewritten, report = self.engine.apply(plan())
        assert report.cache_hit
        assert existing_streams(rewritten) == [("a.com", "outCOM")]

    def test_the_same_spec_is_a_miss_that_reuses_the_stream(self):
        self.db.publish_node(filter_over(alerter()), "a.com", "f1", [("a.com", "outCOM")])
        rewritten, report = self.engine.apply(plan())
        assert not report.cache_hit
        assert report.nodes_reused == report.nodes_considered == 2
        assert existing_streams(rewritten) == [("a.com", "f1")]
        # the new rewrite is cached in turn
        assert self.engine.apply(plan())[1].cache_hit

    def test_retracting_a_matched_stream_is_a_miss(self):
        self.db.retract("stream:outCOM@a.com")
        rewritten, report = self.engine.apply(plan())
        assert not report.cache_hit
        assert report.nodes_reused == 0
        assert existing_streams(rewritten) == []

    def test_an_alerter_stream_at_another_peer_is_a_hit_at_the_probed_peer_a_miss(self):
        db = StreamDefinitionDatabase()
        engine, _ = cached_engine(db)
        assert engine.apply(plan())[1].nodes_reused == 0
        db.publish_node(alerter("b.com"), "b.com", "outCOM", [])
        _, report = engine.apply(plan())
        assert report.cache_hit and report.nodes_reused == 0
        db.publish_node(alerter(), "a.com", "outCOM", [])
        rewritten, report = engine.apply(plan())
        assert not report.cache_hit
        assert existing_streams(rewritten) == [("a.com", "outCOM")]

    def test_publisher_outputs_are_a_hit(self):
        version = self.db.reuse_version
        publisher = PlanNode(PUBLISH, {"mode": "channel", "target": "out"}, [filter_over(alerter())])
        doc_id = self.db.publish_node(publisher, "a.com", "out", [("a.com", "outCOM")])
        assert self.engine.apply(plan())[1].cache_hit
        self.db.retract(doc_id)
        assert self.engine.apply(plan())[1].cache_hit
        assert self.db.reuse_version == version


def test_reaching_the_limit_of_watched_keys_clears_entries_and_keys_together():
    db = StreamDefinitionDatabase()
    db.publish_node(alerter(), "a.com", "outCOM", [])
    engine, cache = cached_engine(db)
    cache.LIMIT = 4
    # each plan probes the shared alerter key and its own filter key
    engine.apply(plan("v1"))
    engine.apply(plan("v2"))
    assert len(cache) == 2 and len(db.watched) == 3
    engine.apply(plan("v3"))  # 3 + 2 keys would pass the bound
    assert len(cache) == 1 and len(db.watched) == 2
    assert engine.apply(plan("v3"))[1].cache_hit
    assert not engine.apply(plan("v1"))[1].cache_hit


def test_a_new_entry_keeps_the_stamps_of_the_keys_it_shares():
    db = StreamDefinitionDatabase()
    db.publish_node(alerter(), "a.com", "outCOM", [])
    engine, _ = cached_engine(db)
    engine.apply(plan("v1"))
    db.publish_node(alerter("b.com"), "b.com", "outCOM", [])  # answers no probe of either plan
    engine.apply(plan("v2"))  # watches the alerter key of v1's entry too
    assert engine.apply(plan("v1"))[1].cache_hit


def test_a_key_missing_from_watched_counts_as_changed():
    db = StreamDefinitionDatabase()
    engine, _ = cached_engine(db)
    engine.apply(plan())
    db.publish_node(alerter("b.com"), "b.com", "outCOM", [])  # moves the version only
    db.watched.clear()
    assert not engine.apply(plan())[1].cache_hit


def test_a_hit_never_instantiates_the_template(monkeypatch):
    built: list[PlanTemplate] = []
    instantiate = PlanTemplate.instantiate

    def counted(self):
        built.append(self)
        return instantiate(self)

    monkeypatch.setattr(PlanTemplate, "instantiate", counted)
    system = P2PMSystem(seed=3)
    system.add_peer("s0")
    monitor = system.add_peer("monitor")
    text = f'for $x in {CHAOS_FUNCTION}(<p>s0</p>) where $x.kind = "chaos" return <seen>{{$x.n}}</seen>'
    handles = monitor.subscribe_many([text] * 5)
    cache = system.reuse_cache
    assert cache.hits >= 3
    assert len(built) == cache.misses
    assert [h.reuse_report.cache_hit for h in handles].count(False) == cache.misses
    monitor.subscribe(text, reuse=False)
    assert len(built) == cache.misses + 1


# -- the generated differential ------------------------------------------------------------


PEERS = ("s0", "s1", "s2")

TEXTS = [
    f'for $x in {CHAOS_FUNCTION}(<p>s0</p>) where $x.kind = "chaos" return <seen>{{$x.n}}</seen>',
    f'for $x in {CHAOS_FUNCTION}(<p>s0</p>) where $x.kind = "chaos" and $x.n > 1 return <seen>{{$x.n}}</seen>',
    f'for $x in {CHAOS_FUNCTION}(<p>s0</p> <p>s1</p>) where $x.kind = "chaos" return <seen>{{$x.n}}</seen>',
    f'for $x in {CHAOS_FUNCTION}(<p>s1</p> <p>s2</p>) where $x.n > 2 return <seen>{{$x.n}}</seen>',
    f'for $x in {CHAOS_FUNCTION}(<p>s2</p>) where $x.kind = "chaos" return <seen n="{{$x.n}}"/> '
    'by publish as channel "shared"',
    f'for $x in {CHAOS_FUNCTION}(<p>s0</p>), $y in {CHAOS_FUNCTION}(<p>s2</p>) '
    'where $x.kind = "chaos" and $x.n = $y.n return <pair><n>{$x.n}</n><m>{$y.n}</m></pair>',
]

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), st.sampled_from(PEERS),
                  st.lists(st.sampled_from(range(len(TEXTS))), min_size=1, max_size=4)),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
    ),
    min_size=1,
    max_size=14,
)


def outcome(rewritten, report):
    providers = [
        (node.params["peer"], node.params["stream_id"], node.params["provider_peer"], node.params["provider_stream_id"])
        for node in rewritten.iter_nodes()
        if node.kind == EXISTING
    ]
    return rewritten.describe(), report.nodes_reused, report.nodes_considered, report.reused, providers


@settings(max_examples=60, deadline=None)
@given(STEPS)
def test_a_cached_pass_equals_an_uncached_visit_and_hits_where_the_old_rule_did(steps):
    system = P2PMSystem(seed=9)
    for peer in PEERS:
        system.add_peer(peer)
    db = system.stream_db
    apply = ReuseEngine.apply
    #: cache key -> the database version at which the old rule last recorded it
    recorded: dict[tuple[str, str], int] = {}

    def checked(self, template):
        assert type(template) is PlanTemplate
        reference = apply(ReuseEngine(db, self.network, self.consumer_peer), template.instantiate())
        key = template.key
        old_hit = recorded.get(key) == db.reuse_version
        if not old_hit:
            recorded[key] = db.reuse_version
        rewritten, report = apply(self, template)
        if rewritten.placement is not None:  # a stamp hands back its recipe's placed tree
            place_plan(reference[0], manager_peer=self.consumer_peer)
        assert outcome(rewritten, report) == outcome(*reference)
        assert report.cache_hit or not old_hit
        return rewritten, report

    ReuseEngine.apply = checked
    try:
        live = []
        for step in steps:
            if step[0] == "subscribe":
                live += system.peer(step[1]).subscribe_many([TEXTS[index] for index in step[2]])
            elif live:
                live.pop(step[1] % len(live)).cancel()
        system.run()
    finally:
        ReuseEngine.apply = apply
    for handle in live:
        handle.cancel()
    assert len(system.resources) == 0
    assert db.verify_index_coherence() == []


def test_the_pool_is_cached_and_reused():
    """The differential's pool exercises what it checks: replayed passes,
    and plans that reuse streams."""
    system = P2PMSystem(seed=9)
    for peer in PEERS:
        system.add_peer(peer)
    handles = []
    for _ in range(2):
        for peer in PEERS:
            handles += system.peer(peer).subscribe_many(TEXTS)
    reports = [h.reuse_report for h in handles]
    assert sum(r.cache_hit for r in reports) > len(reports) // 2
    assert any(r.nodes_reused for r in reports)
