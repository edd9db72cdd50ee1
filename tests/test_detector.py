"""Tests for heartbeat failure detection and detector-driven recovery.

The failure oracle (synchronous ``fail_peer`` callbacks) is replaced by
the :class:`~repro.net.detector.HeartbeatDetector`: seeded neighbor pings
every tick, ALIVE -> SUSPECT -> CONFIRMED escalation with a bounded
latency, suspicion debounce, sticky confirmation and an explicit rejoin
handshake.  In detector mode, kills are *silent* -- these tests prove the
detector (not the oracle) drives index repair and redeployment.
"""

import pytest

from repro.algebra.plan import UNION
from repro.monitor import P2PMSystem
from repro.net.detector import ALIVE, CONFIRMED, SUSPECT, DetectorConfig
from repro.workloads import ChaosFeedWorkload
from repro.workloads.chaos_feed import CHAOS_FUNCTION


def build_system(n_sources=3, seed=1):
    system = P2PMSystem(seed=seed, failure_mode="detector")
    sources = [f"s{i}" for i in range(n_sources)]
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


def run_ticks(system, n):
    for _ in range(n):
        system.tick()
        system.run()


class TestObservationRing:
    def test_targets_are_deterministic_per_seed(self):
        first, _, _ = build_system(n_sources=5, seed=3)
        second, _, _ = build_system(n_sources=5, seed=3)
        for peer_id in first.peer_ids:
            assert first.detector.targets(peer_id) == second.detector.targets(
                peer_id
            )

    def test_fanout_bounds_target_count(self):
        system, _, _ = build_system(n_sources=6, seed=2)
        fanout = system.detector.config.fanout
        for peer_id in system.peer_ids:
            targets = system.detector.targets(peer_id)
            assert len(targets) == fanout
            assert peer_id not in targets

    def test_oracle_mode_has_no_detector(self):
        system = P2PMSystem(seed=1, failure_mode="oracle")
        assert system.detector is None
        assert system.reliable_channels is False


class TestDetectionLatency:
    def test_silent_kill_confirmed_within_bound(self):
        system, sources, monitor = build_system(seed=4)
        run_ticks(system, 2)  # steady state: everyone has fresh evidence
        victim = sources[0]
        killed_at = system.detector.tick_count
        system.fail_peer(victim)  # detector mode: the kill is silent
        assert system.network.down_peers() == frozenset({victim})
        assert system.detector.status(victim) == ALIVE  # nobody knows yet
        bound = system.detector.config.confirm_after + 1
        run_ticks(system, bound)
        assert system.detector.status(victim) == CONFIRMED
        confirmed_at = dict(
            (peer, tick) for tick, peer in system.detector.confirmations
        )[victim]
        assert confirmed_at - killed_at <= bound
        assert victim in system.believed_down()

    def test_confirmation_drives_index_repair_and_redeploy(self):
        system, sources, monitor = build_system(seed=5)
        handle = monitor.subscribe(subscription_text(sources), sub_id="det")
        system.run()
        run_ticks(system, 2)
        victim = handle.plan.find_all(UNION)[0].placement
        system.fail_peer(victim)
        # the oracle chain did NOT run: no recovery until the detector speaks
        assert not any(e.trigger == "failure" for e in system.recovery.events)
        run_ticks(system, system.detector.config.confirm_after + 1)
        outcomes = [e.outcome for e in system.recovery.events]
        assert "recovering" in outcomes
        assert any(o in ("degraded", "deployed") for o in outcomes)
        assert victim not in handle.plan.find_all(UNION)[0].placement
        # the DHT index was repaired off the confirmation as well
        assert victim in system.believed_down()

    def test_detector_keeps_delivering_after_silent_kill(self):
        system, sources, monitor = build_system(seed=6)
        handle = monitor.subscribe(subscription_text(sources), sub_id="flow")
        system.run()
        received = []
        handle.on_result(
            lambda item: received.append(
                (item.find("src").text, int(item.find("n").text))
            )
        )
        workload = ChaosFeedWorkload(sources)
        victim = handle.plan.find_all(UNION)[0].placement
        for tick in range(12):
            if tick == 4:
                system.fail_peer(victim)
            system.tick()
            system.run()
            workload.tick(system, tick)
            system.run()
        survivors = [s for s in sources if s != victim]
        late = [n for src, n in received if n >= 10 and src in survivors]
        assert len(late) == len(survivors) * 2  # ticks 10 and 11 delivered


class TestSuspicionDebounce:
    def test_transient_partition_never_confirms(self):
        system, sources, monitor = build_system(seed=7)
        run_ticks(system, 2)
        victim = sources[1]
        others = [p for p in system.peer_ids if p != victim]
        system.network.partition("blip", [victim], others)
        run_ticks(system, system.detector.config.suspect_after)
        assert system.detector.status(victim) == SUSPECT
        assert victim in system.suspected_peers()
        assert victim in system.avoid_peers()
        system.network.heal("blip")
        system.run()  # released heartbeats arrive before the next evaluation
        run_ticks(system, 2)
        assert system.detector.status(victim) == ALIVE
        assert [p for t, p in system.detector.confirmations] == []
        # debounce means the suspicion left no trace on the deployments
        assert system.recovery.events == []


class TestRejoinHandshake:
    def test_confirmed_peer_rejoins_on_silent_revival(self):
        system, sources, monitor = build_system(seed=8)
        handle = monitor.subscribe(subscription_text(sources), sub_id="rj")
        system.run()
        run_ticks(system, 2)
        victim = sources[0]
        system.fail_peer(victim)
        run_ticks(system, system.detector.config.confirm_after + 1)
        assert system.detector.status(victim) == CONFIRMED
        system.revive_peer(victim)  # silent: no lifecycle notification
        run_ticks(system, 2)
        assert system.detector.status(victim) == ALIVE
        assert victim in [p for t, p in system.detector.rejoins]
        # the revival re-drove recovery: the pruned source is covered again
        outcomes = [
            e.outcome for e in system.recovery.events if e.trigger == "revival"
        ]
        assert "deployed" in outcomes
        assert handle.status == "deployed"

    def test_falsely_confirmed_peer_reintegrates_after_partition(self):
        system, sources, monitor = build_system(seed=9)
        run_ticks(system, 2)
        victim = sources[2]
        others = [p for p in system.peer_ids if p != victim]
        system.network.partition("long", [victim], others)
        run_ticks(system, system.detector.config.confirm_after + 1)
        assert system.detector.status(victim) == CONFIRMED
        # the peer is alive behind the cut and keeps asking back in; stray
        # held pings released by the heal must NOT resurrect it -- only its
        # explicit hb.rejoin does
        system.network.heal("long")
        run_ticks(system, 2)
        assert system.detector.status(victim) == ALIVE
        assert victim in [p for t, p in system.detector.rejoins]


class TestOneFailureChain:
    """``failure_mode`` decides who notices a failure, not what follows: the
    oracle's kill and revival run the chain a detector confirmation and
    rejoin run, channel-subscriber death marking included."""

    @pytest.mark.parametrize("failure_mode", ["oracle", "detector"])
    def test_a_failed_subscriber_is_marked_dead_until_it_revives(self, failure_mode):
        system = P2PMSystem(seed=1, failure_mode=failure_mode)
        publisher = system.add_peer("pub.example")
        subscriber = system.add_peer("sub.example")
        system.add_peer("obs.example")
        publisher.net.publish_channel("feed", publisher.net.create_stream("feed"))
        subscriber.net.subscribe_channel("pub.example", "feed")
        system.run()
        channel = publisher.net.channels.published("feed")
        assert set(channel.subscribers) == {"sub.example"}
        run_ticks(system, 2)  # a no-op round in oracle mode
        system.fail_peer("sub.example")
        run_ticks(system, 0 if system.detector is None else system.detector.config.confirm_after + 1)
        assert channel.dead == {"sub.example"}
        system.revive_peer("sub.example")
        run_ticks(system, 2)
        assert channel.dead == set()
        assert set(channel.subscribers) == {"sub.example"}


class TestDetectorConfig:
    def test_custom_config_changes_latency(self):
        system = P2PMSystem(seed=3, failure_mode="detector")
        # read lazily by targets() and tick(), so setting it before the
        # peers join is the same as building the detector with it
        system.detector.config = DetectorConfig(
            fanout=2, suspect_after=3, confirm_after=5
        )
        for i in range(4):
            system.add_peer(f"p{i}")
        run_ticks(system, 2)
        system.fail_peer("p0")
        run_ticks(system, 4)  # would be confirmed under the default config
        assert system.detector.status("p0") == SUSPECT
        run_ticks(system, 2)
        assert system.detector.status("p0") == CONFIRMED
