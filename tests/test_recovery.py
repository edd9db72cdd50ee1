"""Tests for self-healing deployments: orphan detection, redeployment, revival."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.plan import ALERTER, EXISTING, PUBLISH, UNION, plan_signature
from repro.compile.pipeline import CompiledPipeline
from repro.monitor import (
    DEPLOYED,
    PAUSED,
    RECOVERING,
    P2PMSystem,
    SubscriptionStateError,
)
from repro.streams.stream import collect
from repro.workloads import ChaosFeedWorkload
from repro.workloads.chaos_feed import CHAOS_FUNCTION


def build_system(n_sources: int = 3, seed: int = 1, sources=None):
    system = P2PMSystem(seed=seed)
    sources = sources or [f"s{i}" for i in range(n_sources)]
    for source in sources:
        system.add_peer(source)
    monitor = system.add_peer("monitor")
    return system, sources, monitor


def subscription_text(sources) -> str:
    peers = " ".join(f"<p>{source}</p>" for source in sources)
    return (
        f'for $x in {CHAOS_FUNCTION}({peers}) where $x.kind = "chaos" '
        "return <seen><src>{$x.source}</src><n>{$x.n}</n></seen>"
    )


def deploy(system, sources, monitor, sub_id="chaos", **options):
    handle = monitor.subscribe(subscription_text(sources), sub_id=sub_id, **options)
    system.run()
    return handle


def union_host(handle) -> str:
    return handle.plan.find_all(UNION)[0].placement


def collect_results(handle):
    received = []
    handle.on_result(
        lambda item: received.append((item.find("src").text, int(item.find("n").text)))
    )
    return received


class TestOrphanDetection:
    def test_orphaned_resources_name_the_failed_peers_streams(self):
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor)
        victim = union_host(handle)
        orphans = system.recovery.orphaned_resources(victim)
        assert orphans, "the union host owns deployed streams"
        assert all(
            (len(key) == 2 and key[0] == victim) or (key[0] == "proxy" and victim in key)
            for key in orphans
        )

    def test_affected_subscriptions_found_via_ledger_closure(self):
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor)
        victim = union_host(handle)
        assert system.recovery.affected_subscriptions(victim) == ["chaos"]
        # a peer hosting nothing affects nothing
        outsider = next(s for s in sources if s != victim)
        system.add_peer("idle")
        assert system.recovery.affected_subscriptions("idle") == []
        # every source peer hosts its alerter + filter branch
        assert system.recovery.affected_subscriptions(outsider) == ["chaos"]

    @pytest.mark.parametrize(
        "sources",
        [["s0@x", "s1@x", "s2@x"], ["s0", "s1", "a@b:c"], ["sub", "proxy", "s2"]],
    )
    def test_peer_ids_are_opaque(self, sources):
        """A peer may be called anything a key could be confused with: the
        failed source's branch is pruned whatever the union host is called."""
        system, sources, monitor = build_system(sources=sources)
        handle = deploy(system, sources, monitor)
        outcomes = []
        handle.on_recovery(lambda event: outcomes.append(event.outcome))
        assert system.recovery.affected_subscriptions(sources[0]) == ["chaos"]
        system.fail_peer(sources[0])
        system.run()
        assert outcomes == ["recovering", "degraded"]
        assert sources[0] not in handle.peers_involved()


class TestFailover:
    def test_union_host_failure_redeploys_on_survivors(self):
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor)
        received = collect_results(handle)
        victim = union_host(handle)
        observed_statuses = []
        handle.on_recovery(lambda event: observed_statuses.append((event.outcome, handle.status)))

        system.fail_peer(victim)
        system.run()

        # the RECOVERING state was observable while redeployment ran
        assert ("recovering", RECOVERING) in observed_statuses
        assert ("degraded", DEPLOYED) in observed_statuses
        assert handle.status == DEPLOYED
        assert victim not in handle.peers_involved()
        assert union_host(handle) != victim

        workload = ChaosFeedWorkload(sources)
        workload.tick(system, 0)
        system.run()
        survivors = {s for s in sources if s != victim}
        assert set(received) == {(s, 0) for s in survivors}

    def test_a_redeploy_takes_its_programs_from_the_cache(self):
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor, push_selections=False)

        def programs() -> list[tuple]:
            return [
                operator.stages
                for operators in handle._record.task.operators_by_peer.values()
                for operator in operators
                if isinstance(operator, CompiledPipeline)
            ]

        first = {tuple(stage.signature for stage in stages): stages for stages in programs()}
        assert len(first) == 1  # FILTER and RESTRUCTURE above the union, fused
        misses = system.compile_cache.misses
        system.fail_peer(union_host(handle))
        system.run()
        assert handle._record.epoch == 1 and handle.status == DEPLOYED
        (stages,) = programs()
        assert first[tuple(stage.signature for stage in stages)] is stages
        assert system.compile_cache.misses == misses

    def test_revival_restores_full_coverage(self):
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor)
        received = collect_results(handle)
        victim = union_host(handle)
        system.fail_peer(victim)
        system.run()
        system.revive_peer(victim)
        system.run()
        assert handle.status == DEPLOYED
        assert victim in handle.peers_involved()
        workload = ChaosFeedWorkload(sources)
        workload.tick(system, 7)
        system.run()
        assert set(received) == {(s, 7) for s in sources}
        assert system.recovery.pending_sources == {}

    def test_all_sources_down_waits_then_recovers(self):
        system, sources, monitor = build_system(n_sources=2)
        handle = deploy(system, sources, monitor)
        received = collect_results(handle)
        for source in sources:
            system.fail_peer(source)
        system.run()
        assert handle.status == RECOVERING
        assert set(system.recovery.pending_sources["chaos"]) == set(sources)
        system.revive_peer(sources[0])
        system.run()
        assert handle.status == DEPLOYED  # degraded: one source back
        system.revive_peer(sources[1])
        system.run()
        workload = ChaosFeedWorkload(sources)
        workload.tick(system, 3)
        system.run()
        assert set(received) == {(s, 3) for s in sources}

    def test_delivery_callbacks_survive_redeployment(self):
        """on_result subscribers attach once and keep firing after recovery."""
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor)
        received = collect_results(handle)
        workload = ChaosFeedWorkload(sources)
        workload.tick(system, 0)
        system.run()
        before = len(received)
        victim = union_host(handle)
        system.fail_peer(victim)
        system.run()
        system.revive_peer(victim)
        system.run()
        workload.tick(system, 1)
        system.run()
        assert len(received) == before + len(sources)
        assert len(received) == len(set(received))

    def test_result_buffer_survives_redeployment(self):
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor, max_results=100)
        workload = ChaosFeedWorkload(sources)
        workload.tick(system, 0)
        system.run()
        assert len(handle.results()) == len(sources)
        victim = union_host(handle)
        system.fail_peer(victim)
        system.run()
        workload.tick(system, 1)
        system.run()
        results = handle.results()
        # pre-failure results retained, post-failure results appended
        assert {(r.find("src").text, r.find("n").text) for r in results} >= {
            (s, "0") for s in sources
        }
        assert any(r.find("n").text == "1" for r in results)

    def test_publisher_subscription_recovers_without_double_publication(self):
        system, sources, monitor = build_system()
        text = subscription_text(sources).replace(
            "return <seen><src>{$x.source}</src><n>{$x.n}</n></seen>",
            "return <seen><src>{$x.source}</src><n>{$x.n}</n></seen> "
            'by publish as channel "chaosAlerts"',
        )
        handle = monitor.subscribe(text, sub_id="chaos")
        system.run()
        publisher = handle.publisher
        assert publisher is not None
        victim = union_host(handle)
        system.fail_peer(victim)
        system.run()
        # the publisher outlives the deployment it was built by
        assert handle.publisher is publisher
        # and recovery built no second one, which would publish a second channel
        published = [name for name in handle.channels_created if name.startswith("#chaosAlerts")]
        assert published == [f"#chaosAlerts@{monitor.peer_id}"]
        assert not monitor.net.channels.publishes("chaosAlerts-2")
        workload = ChaosFeedWorkload(sources)
        workload.tick(system, 4)
        system.run()
        survivors = [s for s in sources if s != victim]
        # each surviving source's alert published exactly once
        assert publisher.items_published == len(survivors)
        assert monitor.net.channels.publishes("chaosAlerts")

    def test_paused_subscription_recovers_paused(self):
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor)
        received = collect_results(handle)
        handle.pause()
        victim = union_host(handle)
        system.fail_peer(victim)
        system.run()
        assert handle.status == PAUSED
        workload = ChaosFeedWorkload(sources)
        workload.tick(system, 2)
        system.run()
        assert received == []  # still paused
        handle.resume()
        survivors = {s for s in sources if s != victim}
        assert set(received) == {(s, 2) for s in survivors}


class TestDeliveryEndOutlivesRecovery:
    """What a redeployment used to lose when it handed the delivery audience
    over to a new valve and a new publisher: the delivery end is the record's,
    and the union host's failure only re-points the valve."""

    def emit_one_per_source(self, system, sources, n: int) -> None:
        for source in sources:
            if system.is_alive(source):
                system.peer(source).alerter(CHAOS_FUNCTION).emit_numbered(n)
        system.run()

    def publishing(self, system, sources, monitor):
        text = subscription_text(sources) + ' by publish as channel "X"'
        handle = monitor.subscribe(text, sub_id="chaos", max_results=50)
        system.run()
        return handle

    @staticmethod
    def publisher_descriptions(system):
        return [
            description
            for description in system.stream_db.all_stream_descriptions()
            if description.operator == "Publisher"
        ]

    def test_items_held_during_a_pause_are_delivered_on_resume(self):
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor, max_results=50)
        handle.pause()
        self.emit_one_per_source(system, sources, 1)
        assert handle.stats()["items_pending"] == 3
        system.fail_peer(union_host(handle))
        system.run()
        assert handle.status == PAUSED and handle.stats()["items_pending"] == 3
        handle.resume()
        assert sorted(r.find("src").text for r in handle.results()) == sorted(sources)
        assert handle.stats()["items_pending"] == 0

    def test_the_delivered_count_survives(self):
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor, max_results=50)
        self.emit_one_per_source(system, sources, 1)
        assert handle.stats()["items_delivered"] == 3
        system.fail_peer(union_host(handle))
        system.run()
        assert handle.status == DEPLOYED and handle.stats()["items_delivered"] == 3

    def test_the_publisher_description_follows_the_redeployed_root(self):
        system, sources, monitor = build_system()
        handle = self.publishing(system, sources, monitor)
        assert [d.qualified_id for d in self.publisher_descriptions(system)] == ["X@monitor"]
        system.fail_peer(union_host(handle))
        system.run()
        (description,) = self.publisher_descriptions(system)
        root = handle.task.produced[plan_signature(handle.plan.children[0])]
        assert description.qualified_id == "X@monitor" and description.operands == (root,)
        handle.cancel()
        system.run()
        assert self.publisher_descriptions(system) == []
        assert len(system.resources) == 0

    def test_a_remote_reader_keeps_reading(self):
        system, sources, monitor = build_system()
        handle = self.publishing(system, sources, monitor)
        reader = system.add_peer("reader")
        read = collect(reader.net.channels.subscribe_remote("monitor", "X"))
        system.run()
        self.emit_one_per_source(system, sources, 1)
        assert len(read) == 3
        victim = union_host(handle)
        system.fail_peer(victim)
        system.run()
        self.emit_one_per_source(system, sources, 2)
        assert sorted(item.find("src").text for item in read[3:]) == sorted(
            source for source in sources if source != victim
        )
        assert monitor.net.channels.published("X").subscribers


class TestLifecycleInteraction:
    def test_cancel_while_waiting(self):
        system, sources, monitor = build_system(n_sources=2)
        handle = deploy(system, sources, monitor)
        for source in sources:
            system.fail_peer(source)
        assert handle.status == RECOVERING
        assert handle.cancel() is True
        system.revive_peer(sources[0])
        system.run()
        assert handle.status == "cancelled"
        assert "chaos" not in system.recovery.pending_sources

    def test_an_unsubscribed_recovery_listener_hears_nothing(self):
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor)
        dropped, kept = [], []
        unsubscribe = handle.on_recovery(dropped.append)
        handle.on_recovery(kept.append)
        unsubscribe()
        unsubscribe()  # a second call finds nothing to remove
        system.fail_peer(union_host(handle))
        system.run()
        assert [event.outcome for event in kept] == ["recovering", "degraded"]
        assert dropped == []

    def test_resume_while_recovering_raises(self):
        system, sources, monitor = build_system(n_sources=2)
        handle = deploy(system, sources, monitor)
        for source in sources:
            system.fail_peer(source)
        assert handle.is_recovering
        with pytest.raises(SubscriptionStateError):
            handle.resume()

    def test_is_active_covers_recovering(self):
        system, sources, monitor = build_system(n_sources=2)
        handle = deploy(system, sources, monitor)
        for source in sources:
            system.fail_peer(source)
        assert handle.is_active
        assert monitor.manager.active_subscriptions() == ["chaos"]

    def test_unaffected_subscription_left_alone(self):
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor)
        other_sources = sources[:1]
        other = deploy(system, other_sources, monitor, sub_id="narrow")
        # fail a peer only the wide subscription spans
        wide_only = next(s for s in sources[1:] if s not in other.peers_involved())
        events_before = len(system.recovery.events)
        system.fail_peer(wide_only)
        system.run()
        assert handle.status == DEPLOYED
        assert other.status == DEPLOYED
        touched = {e.sub_id for e in system.recovery.events[events_before:]}
        assert touched == {"chaos"}

    def test_co_subscriber_keeps_receiving_through_peer_failure(self):
        """Recovery of one subscription must not break an overlapping one."""
        system, sources, monitor = build_system()
        wide = deploy(system, sources, monitor)
        narrow = deploy(system, sources[:2], monitor, sub_id="narrow", reuse=False)
        wide_received = collect_results(wide)
        narrow_received = collect_results(narrow)
        victim = sources[2]  # only the wide subscription spans s2
        if union_host(narrow) == victim:  # pragma: no cover - topology guard
            pytest.skip("placement put the narrow union on the wide-only peer")
        system.fail_peer(victim)
        system.run()
        workload = ChaosFeedWorkload(sources)
        workload.tick(system, 5)
        system.run()
        survivors = {s for s in sources if s != victim}
        assert set(wide_received) == {(s, 5) for s in survivors}
        assert set(narrow_received) == {(s, 5) for s in sources[:2] if s in survivors}


class TestReviewRegressions:
    def test_pause_survives_a_waiting_recovery_round(self):
        """A paused subscription must stay paused through waiting -> revival."""
        system, sources, monitor = build_system(n_sources=2)
        handle = deploy(system, sources, monitor)
        received = collect_results(handle)
        handle.pause()
        for source in sources:
            system.fail_peer(source)
        system.run()
        assert handle.status == RECOVERING  # waiting: nothing deployable
        system.revive_peer(sources[0])
        system.run()
        assert handle.status == PAUSED  # recovered, but the pause held
        workload = ChaosFeedWorkload(sources)
        workload.tick(system, 1)
        system.run()
        assert received == []
        handle.resume()
        assert received == [(sources[0], 1)]

    def test_manager_peer_failure_abandons_until_its_revival(self):
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor)
        received = collect_results(handle)
        system.fail_peer("monitor")
        # a source failing while the manager is down must not redeploy from it
        system.fail_peer(sources[0])
        events = [e.outcome for e in system.recovery.events]
        assert "abandoned" in events
        assert "monitor" in system.recovery.pending_sources["chaos"]
        system.revive_peer(sources[0])
        system.run()
        # still driven by a dead manager: nothing redeployed yet
        assert "monitor" in system.recovery.pending_sources.get("chaos", set())
        system.revive_peer("monitor")
        system.run()
        assert handle.status == DEPLOYED
        workload = ChaosFeedWorkload(sources)
        workload.tick(system, 9)
        system.run()
        assert set(received) == {(s, 9) for s in sources}

    def test_unsubscriber_still_works_after_recovery_handover(self):
        system, sources, monitor = build_system()
        handle = deploy(system, sources, monitor)
        received = []
        unsubscribe = handle.on_result(lambda item: received.append(item))
        victim = union_host(handle)
        system.fail_peer(victim)
        system.run()
        unsubscribe()  # the valve it is on outlived the redeployment
        workload = ChaosFeedWorkload(sources)
        workload.tick(system, 2)
        system.run()
        assert received == []


# -- recovery against a brute-force oracle -------------------------------------------

#: peer ids: short strings over an alphabet with the separators the ledger's
#: holders once were parsed by, and the two names its keys are tagged with
PEER_IDS = st.one_of(st.sampled_from(["sub", "proxy"]), st.text(alphabet="ab@:", min_size=1, max_size=4))

SUB_IDS = ["A", "sub", "C@p:q", "proxy"]


def plan_reach(records) -> dict[str, set[str]]:
    """Every peer each subscription's deployment runs on or reads a channel
    from or to -- computed from the deployed plans alone, following a reused
    stream to the plan that produced it and a replica to the stream it copies."""
    produced = {}  # (peer, stream id) -> the plan node whose output it is
    sources = {}  # (consumer, original stream) -> providers it is read from
    for record in records:
        for node in record.plan.iter_nodes():
            where = record.task.produced.get(plan_signature(node))
            if where is not None:
                produced[where] = node

    def output_of(node, record) -> tuple[str, str]:
        if node.kind == ALERTER:
            return node.placement, node.params["alerter"]
        return record.task.produced[plan_signature(node)]

    def reads(node, consumer, record):
        if node.kind == EXISTING:
            original = (node.params["peer"], node.params["stream_id"])
            provider = node.params.get("provider_peer") or original[0]
        else:
            original, provider = output_of(node, record), node.placement
        if provider != consumer:
            sources.setdefault((consumer, original), set()).add(provider)

    for record in records:
        for node in record.plan.iter_nodes():
            for child in node.children:
                reads(child, node.placement, record)
        if record.plan.kind != PUBLISH:
            reads(record.plan, record.manager_peer, record)

    def chain(provider: str, original: tuple[str, str]) -> set[str]:
        peers, frontier = {provider}, [provider]
        while frontier:
            peer = frontier.pop()
            if peer == original[0]:
                continue
            for upstream in sources[(peer, original)] - peers:
                peers.add(upstream)
                frontier.append(upstream)
        return peers

    def reach(node, consumer: str) -> set[str]:
        if node.kind == EXISTING:
            original = (node.params["peer"], node.params["stream_id"])
            peers = {consumer} | chain(node.params.get("provider_peer") or original[0], original)
            origin = produced.get(original)
            return peers | (reach(origin, original[0]) if origin is not None else {original[0]})
        peers = {consumer, node.placement}
        for child in node.children:
            peers |= reach(child, node.placement)
        return peers

    return {
        record.sub_id: reach(record.plan, record.manager_peer) for record in records
    }


class LedgerAudit:
    """Who holds what, recorded beside the ledger through its own entry
    points: nothing may be torn down while a live entry still holds it."""

    def __init__(self, ledger) -> None:
        self.edges: set[tuple[object, object]] = set()  # (holder, key)
        self.violations: list[tuple[object, object]] = []
        register, retain, release = ledger.register, ledger.retain, ledger.release

        def audited_register(key, undo=(), inputs=()):
            created = register(key, undo, inputs)
            if created:
                self.edges.update((key, input_key) for input_key in inputs)
            return created

        def audited_retain(key, holder):
            self.edges.add((holder, key))
            retain(key, holder)

        def audited_release(key, holder=None):
            self.edges.discard((holder, key))
            torn_down = release(key, holder)
            if torn_down:
                self.violations += [
                    (other, key) for other, held in self.edges
                    if held == key and ledger.known(other)
                ]
            return torn_down

        ledger.register, ledger.retain, ledger.release = (
            audited_register, audited_retain, audited_release
        )


class TestRecoveryOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        n_sources=st.integers(2, 5),
        names=st.lists(PEER_IDS, min_size=8, max_size=8, unique=True),
        producer_sources=st.sets(st.integers(0, 4), min_size=1),
        other_sources=st.sets(st.integers(0, 4), min_size=1),
        other_shares_filters=st.booleans(),
        other_manager=st.integers(0, 2),
        victim=st.integers(0, 7),
        cancel_order=st.permutations(range(4)),
    )
    @example(  # the three-source union whose holder strings lost "s0@x"
        n_sources=3,
        names=["s0@x", "s1@x", "s2@x", "s3@x", "s4@x", "m0", "m1", "m2"],
        producer_sources={0, 1, 2},
        other_sources={0},
        other_shares_filters=False,
        other_manager=0,
        victim=0,
        cancel_order=[0, 1, 2, 3],
    )
    def test_affected_subscriptions_match_the_plans(
        self, n_sources, names, producer_sources, other_sources,
        other_shares_filters, other_manager, victim, cancel_order,
    ):
        """Twins of one subscription reuse its stream -- the last one through
        a replica of a replica -- beside an overlapping subscription; one peer
        fails.  Recovery must reach exactly the subscriptions whose plans
        touch the failed peer, and cancelling everything must empty the ledger
        without tearing down anything still held."""
        sources, managers = names[:n_sources], names[5:]
        system = P2PMSystem(seed=1)
        audit = LedgerAudit(system.resources)
        for index, source in enumerate(sources):
            system.add_peer(source, coordinates=(0.0, 0.1 * index))
        # the producer's twin is nearest the producer, the reader nearest the twin
        for manager, coordinates in zip(managers, [(1.0, 0.0), (1.0, 1.0), (1.0, 1.01)]):
            system.add_peer(manager, coordinates=coordinates)
        text = subscription_text([sources[i] for i in sorted({i % n_sources for i in producer_sources})])
        other = subscription_text([sources[i] for i in sorted({i % n_sources for i in other_sources})])
        if other_shares_filters:
            other = other.replace("<seen>", "<other>").replace("</seen>", "</other>")
        else:
            other = other.replace('"chaos"', '"chaos" and $x.n >= 1')
        handles, records = [], []
        for sub_id, manager, subscription in zip(
            SUB_IDS,
            [*managers, managers[other_manager]],
            [text, text, text + ' by publish as channel "copy"', other],
        ):
            handles.append(system.peer(manager).subscribe(subscription, sub_id=sub_id))
            records.append(system.peer(manager).manager.database.get(sub_id))
            system.run()
        (read,) = handles[2].plan.find_all(EXISTING)
        assert read.params["provider_peer"] == managers[1], "the reader must read a replica"

        failed = (sources + managers)[victim % (n_sources + 3)]
        expected = sorted(
            sub_id for sub_id, peers in plan_reach(records).items() if failed in peers
        )
        assert system.recovery.affected_subscriptions(failed) == expected

        system.fail_peer(failed)
        system.run()
        for index in cancel_order:
            handles[index].cancel()
            system.run()
        assert len(system.resources) == 0
        assert audit.edges == set() and audit.violations == []
