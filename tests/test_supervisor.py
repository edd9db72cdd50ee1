"""Worker supervision and crash failover: real process faults, typed errors.

The sharded runtime's substrate -- the worker processes themselves -- can
fail.  These tests inject *real* failures (SIGKILL mid-run, a worker stuck
in a sleep, a corrupted reply, a fork that dies) and assert the supervised
parent always converts them into either a deterministic failover or a typed
error, never a hang.  ``pytest-timeout`` is not available in this
environment, so every potentially-hanging assertion runs under a hand-rolled
thread deadline (:func:`finishes_within`) that fails the test instead of
wedging the suite.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.monitor import P2PMSystem
from repro.net.errors import (
    FailoverImpossible,
    ShardWorkerError,
    WorkerCrashed,
    WorkerHung,
    WorkerPoisoned,
)
from repro.net.shard import WORKER_FAULTS
from repro.scenarios import make_scenario
from repro.workloads.chaos_feed import CHAOS_FUNCTION

#: generous wall-clock bound for "this must terminate" assertions; the
#: supervised paths finish in well under a second, the bound only exists to
#: stop a regression from hanging CI
DEADLINE = 60.0


def finishes_within(fn, seconds=DEADLINE):
    """Run ``fn`` on a daemon thread; fail the test if it never returns.

    A hang in the supervised protocol would otherwise block pytest forever
    (no pytest-timeout in this environment).  On deadline the leaked worker
    processes are reaped so one failing test cannot poison the rest of the
    session.
    """
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # re-raised on the test thread below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        for proc in multiprocessing.active_children():
            proc.kill()
        pytest.fail(f"did not finish within {seconds}s: would have hung")
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


def pinned_assigner(peer_id, shards):
    """Monitor on shard 0, source ``s<i>`` on shard ``1 + i % (shards-1)``."""
    if peer_id == "monitor":
        return 0
    if peer_id.startswith("s") and peer_id[1:].isdigit():
        return 1 + int(peer_id[1:]) % (shards - 1)
    return None


def build_system(n_sources=4, shards=3, **kwargs):
    """A started sharded system with one chaos-feed subscription."""
    system = P2PMSystem(
        runtime="sharded",
        shards=shards,
        failure_mode="oracle",
        shard_assigner=pinned_assigner,
        **kwargs,
    )
    sources = [f"s{i}" for i in range(n_sources)]
    for source in sources:
        system.add_peer(source)
    monitor = system.add_peer("monitor")
    peers = " ".join(f"<p>{source}</p>" for source in sources)
    handle = monitor.subscribe(
        f"for $x in {CHAOS_FUNCTION}({peers}) "
        'where $x.kind = "chaos" '
        "return <seen><src>{$x.source}</src><n>{$x.n}</n></seen>",
        sub_id="watch",
    )
    system.run()
    received = []
    handle.on_result(
        lambda item: received.append((item.find("src").text, int(item.find("n").text)))
    )
    system.start_runtime()
    return system, sources, received


def pump(system, sources, ticks):
    for tick in ticks:
        for source in sources:
            if system.is_alive(source):
                system.drive_alerter(source, CHAOS_FUNCTION, "emit_numbered", tick)
        system.run()


class TestCrashFailover:
    def test_sigkill_mid_run_fails_over_and_keeps_delivering(self):
        """A real SIGKILL: survivors' alerts keep flowing, counters record it."""
        system, sources, received = build_system()
        runtime = system.runtime

        def scenario():
            pump(system, sources, range(3))
            assert len(received) == 12
            # kill the worker owning s0/s2 out-of-band -- the real signal,
            # not a cooperative stop.  Join it so the pipe is verifiably
            # dead before the next turn (otherwise whether the kill lands
            # before or after the next emissions is a race)
            victim = runtime.shard_for("s0")
            os.kill(runtime._procs[victim].pid, signal.SIGKILL)
            runtime._procs[victim].join(timeout=10)
            pump(system, sources, range(3, 6))
            system.shutdown()
            return victim

        victim = finishes_within(scenario)
        assert list(runtime.lost) == [victim]
        assert isinstance(runtime.lost[victim], WorkerCrashed)
        assert sorted(runtime.failed_over_peers) == ["s0", "s2"]
        # the failed-over sources stop at the kill; the survivors cover the
        # whole run (the kill lands between epochs here, so not even the
        # kill-tick emissions are lost)
        survivor_alerts = [(p, n) for p, n in received if p in ("s1", "s3")]
        assert sorted(survivor_alerts) == [
            (p, n) for p in ("s1", "s3") for n in range(6)
        ]
        stats = system.network.stats.reliability_snapshot()
        assert stats["worker_restarts"] == 1
        assert stats["peers_failed_over"] == 2

    def test_hung_worker_is_killed_and_failed_over(self):
        """A wedged worker trips the turn deadline, not an infinite wait."""
        system, sources, received = build_system(shard_turn_timeout=1.0)
        runtime = system.runtime

        def scenario():
            pump(system, sources, range(2))
            victim = runtime.shard_for("s0")
            runtime.inject_worker_fault("hang", victim)
            system.run()  # the hang fires here; failover settles before
            pump(system, sources, range(2, 4))  # ...the next emissions
            straggler_killed = not runtime._procs[victim].is_alive()
            system.shutdown()
            return victim, straggler_killed

        victim, straggler_killed = finishes_within(scenario)
        assert isinstance(runtime.lost[victim], WorkerHung)
        assert straggler_killed
        assert sorted(runtime.failed_over_peers) == ["s0", "s2"]
        # the hang was noticed mid-epoch: that epoch stalled, on record
        assert system.network.stats.reliability_snapshot()["epochs_stalled"] >= 1
        assert [(p, n) for p, n in received if p == "s1"] == [
            ("s1", n) for n in range(4)
        ]

    def test_poisoned_reply_is_classified_and_failed_over(self):
        """A malformed reply means untrusted worker state: kill and fail over."""
        system, sources, received = build_system()
        runtime = system.runtime

        def scenario():
            pump(system, sources, range(2))
            runtime.inject_worker_fault("corrupt", runtime.shard_for("s0"))
            pump(system, sources, range(2, 4))
            system.shutdown()

        finishes_within(scenario)
        victim = runtime.shard_for("s0")
        failure = runtime.lost[victim]
        assert isinstance(failure, WorkerPoisoned)
        assert "expected" in str(failure)
        assert sorted(runtime.failed_over_peers) == ["s0", "s2"]

    def test_losing_the_majority_is_a_typed_abort_not_a_hang(self):
        """>half the shards gone: FailoverImpossible, sticky, and shutdown works."""
        system, sources, _ = build_system()
        runtime = system.runtime

        def scenario():
            pump(system, sources, range(2))
            runtime.inject_worker_fault("kill", 1)
            runtime.inject_worker_fault("kill", 2)
            with pytest.raises(FailoverImpossible) as excinfo:
                pump(system, sources, range(2, 4))
            # the abort is sticky: every later epoch refuses with the same
            # typed error instead of running on a minority of the peers
            with pytest.raises(FailoverImpossible):
                system.run()
            system.shutdown()
            return excinfo.value

        error = finishes_within(scenario)
        assert sorted(error.lost) == [1, 2]
        assert error.shards == 3

    @pytest.mark.parametrize("kind", WORKER_FAULTS)
    def test_fault_against_a_dead_worker_fails_over(self, kind):
        """Injecting into a worker that already died is a supervised send."""
        system, sources, _ = build_system()
        runtime = system.runtime

        def scenario():
            pump(system, sources, range(2))
            victim = runtime.shard_for("s0")
            os.kill(runtime._procs[victim].pid, signal.SIGKILL)
            runtime._procs[victim].join(timeout=10)
            runtime.inject_worker_fault(kind, victim)
            system.run()
            system.shutdown()
            return victim

        victim = finishes_within(scenario)
        assert isinstance(runtime.lost[victim], WorkerCrashed)
        assert sorted(runtime.failed_over_peers) == ["s0", "s2"]
        assert runtime._procs == [] and runtime._conns == []
        assert multiprocessing.active_children() == []

    def test_worker_dying_mid_turn_is_a_crash_not_a_hang(self):
        """The parent waits on the process too: a death ends the wait at once."""
        system, sources, _ = build_system(shard_turn_timeout=30.0)
        runtime = system.runtime

        def scenario():
            pump(system, sources, range(2))
            victim = runtime.shard_for("s0")
            runtime.inject_worker_fault("hang", victim)
            # the straggler dies while the parent is waiting on its turn
            killer = threading.Timer(
                0.5, os.kill, (runtime._procs[victim].pid, signal.SIGKILL)
            )
            killer.start()
            started = time.monotonic()
            system.run()
            elapsed = time.monotonic() - started
            killer.join(timeout=10)
            system.shutdown()
            return victim, elapsed

        victim, elapsed = finishes_within(scenario)
        assert isinstance(runtime.lost[victim], WorkerCrashed)
        assert elapsed < 5.0

    def test_reply_sent_just_before_exit_is_read(self, monkeypatch):
        """A worker that replies and exits at once still has its reply read."""
        from repro.net import shard as shard_module

        real_worker = shard_module._worker_main

        def replies_then_exits(system, index, conn):
            if index == 1:  # owns s0 and s2
                send = conn.send

                def send_then_exit(reply):
                    send(reply)
                    if reply[0] == "out":
                        os._exit(0)

                conn.send = send_then_exit
            real_worker(system, index, conn)

        monkeypatch.setattr(shard_module, "_worker_main", replies_then_exits)
        system, sources, received = build_system()
        runtime = system.runtime

        def scenario():
            # the tick-0 alerts of s0 and s2 leave shard 1 in the outboxes
            # of the very reply it sends before exiting
            pump(system, sources, range(2))
            system.shutdown()

        finishes_within(scenario)
        assert ("s0", 0) in received and ("s2", 0) in received
        assert isinstance(runtime.lost[1], WorkerCrashed)
        assert sorted(runtime.failed_over_peers) == ["s0", "s2"]

    def test_one_request_per_worker_per_round(self):
        """A quiet epoch is one drain per live worker, and nothing else."""
        system, sources, _ = build_system()
        runtime = system.runtime

        def scenario():
            pump(system, sources, range(2))
            sent = []
            for index, conn in enumerate(runtime._conns):

                def record(command, index=index, send=conn.send):
                    sent.append((index, command[0]))
                    send(command)

                conn.send = record
            rounds = runtime.rounds
            system.run()
            rounds = runtime.rounds - rounds
            ops = list(sent)
            system.shutdown()
            return ops, rounds

        ops, rounds = finishes_within(scenario)
        assert rounds == 1
        assert sorted(ops) == [(index, "drain") for index in range(3)]


class TestTypedWorkerErrors:
    def test_remote_exception_carries_traceback(self):
        """A worker-side exception surfaces as ShardWorkerError with the trace."""
        system, sources, _ = build_system()

        def scenario():
            system.drive_alerter("s0", CHAOS_FUNCTION, "no_such_method")
            with pytest.raises(ShardWorkerError) as excinfo:
                pump(system, sources, range(1))
            system.shutdown()
            return excinfo.value

        error = finishes_within(scenario)
        assert "AttributeError" in str(error)
        assert any("no_such_method" in trace for trace in error.tracebacks)


class TestResourceHygiene:
    def test_shutdown_reaps_processes_and_descriptors(self):
        baseline_fds = len(os.listdir("/proc/self/fd"))

        def scenario():
            system, sources, _ = build_system()
            pump(system, sources, range(2))
            system.shutdown()
            return system

        system = finishes_within(scenario)
        assert multiprocessing.active_children() == []
        assert system.runtime._conns == [] and system.runtime._procs == []
        assert len(os.listdir("/proc/self/fd")) == baseline_fds

    def test_shutdown_after_failover_reaps_everything(self):
        baseline_fds = len(os.listdir("/proc/self/fd"))

        def scenario():
            system, sources, _ = build_system()
            system.runtime.inject_worker_fault("kill", 1)
            pump(system, sources, range(2))
            system.shutdown()

        finishes_within(scenario)
        assert multiprocessing.active_children() == []
        assert len(os.listdir("/proc/self/fd")) == baseline_fds

    def test_mid_start_failure_leaks_nothing(self, monkeypatch):
        """A fork that explodes unwinds every already-started worker and pipe."""
        from repro.net import shard as shard_module

        real_context = shard_module.get_context("fork")
        attempts = []

        class ExplodingContext:
            Pipe = staticmethod(real_context.Pipe)

            @staticmethod
            def Process(*args, **kwargs):
                proc = real_context.Process(*args, **kwargs)
                if len(attempts) >= 1:  # second worker never comes up
                    proc.start = _explode  # type: ignore[method-assign]
                attempts.append(proc)
                return proc

        def _explode():
            raise OSError("fork failed (injected)")

        monkeypatch.setattr(
            shard_module, "get_context", lambda kind: ExplodingContext
        )
        baseline_fds = len(os.listdir("/proc/self/fd"))
        system = P2PMSystem(runtime="sharded", shards=3, failure_mode="oracle")
        system.add_peer("src")
        monitor = system.add_peer("monitor")
        monitor.subscribe(
            f"for $x in {CHAOS_FUNCTION}(<p>src</p>) "
            'where $x.kind = "chaos" return <seen>{$x.n}</seen>',
            sub_id="watch",
        )
        system.run()

        def scenario():
            with pytest.raises(OSError, match="injected"):
                system.start_runtime()

        finishes_within(scenario)
        assert not system.runtime.started
        assert system.runtime._procs == []
        assert system.runtime._conns == []
        assert multiprocessing.active_children() == []
        assert len(os.listdir("/proc/self/fd")) == baseline_fds


class TestFaultInjector:
    def test_faults_against_lost_shards_are_skipped(self):
        system, sources, _ = build_system()
        runtime = system.runtime

        def scenario():
            runtime.inject_worker_fault("kill", 1)
            pump(system, sources, range(1))
            runtime.inject_worker_fault("hang", 1)  # shard 1 already lost
            pump(system, sources, range(1, 2))
            system.shutdown()

        finishes_within(scenario)
        assert runtime.injected_faults == [(1, "kill", 1)]
        assert list(runtime.lost) == [1]

    def test_unknown_kind_is_rejected(self):
        runtime = P2PMSystem(runtime="sharded", shards=2).runtime
        with pytest.raises(ValueError, match="kind"):
            runtime.inject_worker_fault("explode", 1)
        assert runtime._faults == []


class TestWorkerFaultScenarios:
    def test_worker_crash_scenario_is_deterministic(self):
        first = make_scenario("worker-crash", seed=3).run()
        second = make_scenario("worker-crash", seed=3).run()
        assert first.fingerprint == second.fingerprint
        assert first.worker_faults == second.worker_faults
        assert first.ok

    def test_worker_fault_scenarios_refuse_single_runtime(self):
        with pytest.raises(ValueError, match="sharded"):
            make_scenario("worker-crash", seed=0, runtime="single")

    def test_worker_fault_action_requires_sharded_runtime(self):
        from repro.scenarios.chaos import ChaosScenario, ScenarioAction

        scenario = ChaosScenario(
            name="bad",
            ticks=3,
            schedule=(ScenarioAction(1, "worker-kill", 1),),
        )
        with pytest.raises(ValueError, match="sharded"):
            scenario.run()
