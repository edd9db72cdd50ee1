"""Tests for the reliable control-plane RPC layer.

Covers the client/server stack in isolation (retries, idempotency keys,
the per-destination circuit breaker, typed failures) and the end-to-end
acceptance criterion: a lossy control plane never silently drops or
double-executes a deployment -- every submit either deploys fully or
raises a typed :class:`~repro.net.errors.RpcError`.
"""

import pytest

from repro.algebra.plan import EXISTING
from repro.monitor import P2PMSystem
from repro.net.errors import CircuitOpen, RpcError, RpcRemoteError, RpcTimeout
from repro.net.faults import FaultModel
from repro.net.peer import Peer
from repro.net.rpc import CircuitBreaker, RetryPolicy, RpcEndpoint
from repro.net.simnet import SimNetwork
from repro.workloads import ChaosFeedWorkload
from repro.workloads.chaos_feed import CHAOS_FUNCTION
from repro.xmlmodel.tree import Element


def build_pair(seed=0, fault_model=None, policy=None):
    network = SimNetwork(seed=seed, fault_model=fault_model)
    a = Peer("a", network)
    b = Peer("b", network)
    client = RpcEndpoint(a, policy)
    server = RpcEndpoint(b, policy)
    return network, client, server


def echo_counter(server):
    """Register an ``echo`` method that counts its executions."""
    executions = []

    def echo(params, source):
        executions.append(source)
        return Element("echoed", {"text": params.attrib.get("text", "")})

    server.register("echo", echo)
    return executions


class TestRoundTrip:
    def test_call_completes_with_result(self):
        network, client, server = build_pair()
        executions = echo_counter(server)
        call = client.call("b", "echo", Element("args", {"text": "hi"}))
        assert not call.done and client.in_flight == 1
        network.run()
        assert call.done and client.in_flight == 0
        result = call.value()
        assert result is not None and result.attrib["text"] == "hi"
        assert executions == ["a"]

    def test_call_sync_pumps_the_network(self):
        network, client, server = build_pair()
        echo_counter(server)
        result = client.call_sync("b", "echo", Element("args", {"text": "x"}))
        assert result is not None and result.attrib["text"] == "x"

    def test_remote_exception_travels_back_typed(self):
        network, client, server = build_pair()

        def boom(params, source):
            raise ValueError("broken handler")

        server.register("boom", boom)
        with pytest.raises(RpcRemoteError, match="broken handler"):
            client.call_sync("b", "boom")
        # a response arrived, so the link is healthy: breaker stays closed
        assert client.breaker("b").state == CircuitBreaker.CLOSED

    def test_unknown_method_is_a_remote_error(self):
        network, client, server = build_pair()
        with pytest.raises(RpcRemoteError, match="unknown method"):
            client.call_sync("b", "nope")

    def test_value_before_completion_raises(self):
        network, client, server = build_pair()
        echo_counter(server)
        call = client.call("b", "echo")
        with pytest.raises(RuntimeError, match="in flight"):
            call.value()
        network.run()


class TestRetries:
    def test_retries_survive_heavy_loss_without_reexecution(self):
        network, client, server = build_pair(
            seed=3, fault_model=FaultModel(loss_rate=0.5)
        )
        executions = []
        server.register(
            "tag", lambda params, source: executions.append(params.attrib["n"])
        )
        succeeded = []
        for n in range(20):
            try:
                client.call_sync("b", "tag", Element("args", {"n": str(n)}))
            except RpcTimeout:
                continue
            succeeded.append(str(n))
        # at 50% loss most calls need retries, yet the handler ran at most
        # once per call: retries reuse the correlation id and the receiver
        # replays its cached response for duplicates.  At-least-once means
        # a timed-out call may still have executed (its response was lost),
        # so executions can exceed successes -- but never repeat
        assert network.stats.rpc_retries > 0
        assert len(set(executions)) == len(executions)
        assert set(succeeded) <= set(executions)

    def test_duplicated_requests_execute_once(self):
        network, client, server = build_pair(
            seed=5, fault_model=FaultModel(duplication_rate=1.0)
        )
        executions = echo_counter(server)
        result = client.call_sync("b", "echo", Element("args", {"text": "once"}))
        assert result is not None
        assert executions == ["a"]

    def test_exhausted_retries_raise_typed_timeout(self):
        network, client, server = build_pair(
            policy=RetryPolicy(max_attempts=3, base_timeout=0.01)
        )
        network.fail_peer("b", notify=False)
        with pytest.raises(RpcTimeout) as info:
            client.call_sync("b", "echo")
        assert info.value.destination == "b"
        assert info.value.attempts == 3
        assert network.stats.rpc_timeouts == 1
        assert isinstance(info.value, RpcError)


class TestCircuitBreaker:
    def test_repeated_timeouts_open_then_cooldown_half_opens(self):
        policy = RetryPolicy(max_attempts=2, base_timeout=0.01)
        network, client, server = build_pair(policy=policy)
        echo_counter(server)
        network.fail_peer("b", notify=False)
        for _ in range(3):
            with pytest.raises(RpcTimeout):
                client.call_sync("b", "echo")
        assert client.breaker("b").state == CircuitBreaker.OPEN
        assert client.open_circuits() == ["b"]
        with pytest.raises(CircuitOpen):
            client.call("b", "echo")
        assert network.stats.rpc_rejected == 1
        # after the cooldown one half-open probe goes through; the revived
        # destination answers and the circuit closes again
        network.revive_peer("b", notify=False)
        network.advance(CircuitBreaker().cooldown + 0.01)
        result = client.call_sync("b", "echo", Element("args", {"text": "probe"}))
        assert result is not None
        assert client.breaker("b").state == CircuitBreaker.CLOSED
        assert client.open_circuits() == []

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1.0)
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        assert breaker.record_failure(0.0) is True  # newly opened
        assert not breaker.allow(0.5)
        assert breaker.allow(1.5)  # half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.record_failure(1.5) is True  # re-opened
        assert not breaker.allow(1.6)


class TestPartitionRetry:
    """Satellite: an RPC retried across a held partition must not
    double-execute after the heal releases every held copy."""

    def run_once(self, seed=11):
        network = SimNetwork(seed=seed)
        network.record_events = True
        a = Peer("a", network)
        b = Peer("b", network)
        client = RpcEndpoint(a, RetryPolicy(max_attempts=4, base_timeout=0.02))
        server = RpcEndpoint(b)
        executions = echo_counter(server)
        network.partition("cut", ["a"], ["b"])
        with pytest.raises(RpcTimeout):
            # every attempt's request is *held* by the partition, not lost;
            # the deadline timers still fire, so the call times out typed
            client.call_sync("b", "echo", Element("args", {"text": "held"}))
        assert executions == []
        released = network.heal("cut")
        assert released >= 4  # all four request copies were held
        network.run()
        return network, executions

    def test_held_retries_execute_at_most_once_after_heal(self):
        network, executions = self.run_once()
        # the heal delivered every retry copy; idempotency keys collapse
        # them into at most one execution
        assert len(executions) == 1

    def test_partition_retry_is_deterministic(self):
        first, _ = self.run_once()
        second, _ = self.run_once()
        assert first.trace_fingerprint() == second.trace_fingerprint()


class TestLossyControlPlaneSoak:
    """Acceptance: a 10%-lossy control plane deploys 1k overlapping
    subscriptions with zero silent losses -- every submit either deploys
    fully or raises a typed RPC error."""

    def test_thousand_subscriptions_deploy_or_fail_typed(self):
        system = P2PMSystem(seed=17, reliable_control=True)
        sources = [f"s{i}" for i in range(4)]
        for source in sources:
            system.add_peer(source)
        monitor = system.add_peer("monitor")
        system.network.set_fault_model(FaultModel(loss_rate=0.1, jitter=0.01))
        peers = " ".join(f"<p>{source}</p>" for source in sources)
        deployed, failed = [], []
        for n in range(1000):
            # a RETURN of its own per subscription: reuse shares the filters,
            # but every subscription still deploys and publishes a stream
            # through the control plane under test
            text = (
                f'for $x in {CHAOS_FUNCTION}({peers}) where $x.kind = "chaos" '
                f"return <seen{n}><src>{{$x.source}}</src><n>{{$x.n}}</n></seen{n}>"
            )
            try:
                handle = monitor.subscribe(text, sub_id=f"soak-{n}")
            except RpcError as exc:
                failed.append((n, exc))
            else:
                deployed.append(handle)
            system.run()
        assert len(deployed) + len(failed) == 1000
        # loss this mild should almost never exhaust a 6-attempt budget;
        # whatever does fail must have failed *typed*, before deploying
        assert len(deployed) >= 990
        for handle in deployed:
            assert handle.status == "deployed"
        # no silent partial deployment: everything that reported success
        # actually delivers end to end
        sample = deployed[:: max(1, len(deployed) // 10)]
        received = [[] for _ in sample]
        for bucket, handle in zip(received, sample):
            handle.on_result(bucket.append)
        system.network.set_fault_model(None)
        workload = ChaosFeedWorkload(sources)
        workload.tick(system, 0)
        system.run()
        for bucket in received:
            assert len(bucket) == len(sources)
        counters = deployed[0].stats()["reliability"]
        assert counters["rpc_calls"] >= 1000
        assert system.stream_db.verify_index_coherence() == []
        for handle in deployed:
            handle.cancel()
        system.run()
        assert len(system.resources) == 0


class TestFailedPublication:
    """A stream publication whose reply is lost after it landed at its DHT
    home: the subscription fails typed and leaves nothing behind, neither a
    reusable advertisement nor a wired operator nor a ledger entry."""

    TEXT = 'for $c in outCOM(<p>s0</p>) where $c.callMethod = "a" return $c;'

    @classmethod
    def fail_publication(cls, failing_call=2):
        """Subscribe ``TEXT`` at m1 while the ``failing_call``-th routed
        publication lands and then times out: the 1st is the alerter's
        stream at s0, the 2nd the filter's."""
        system = P2PMSystem(seed=3, reliable_control=True, failure_mode="detector")
        for peer_id in ("s0", "m1", "m2"):
            system.add_peer(peer_id)
        router = system.stream_db.router
        publish = router.publish_document
        calls = []

        def lands_then_times_out(description, doc_id):
            calls.append(doc_id)
            publish(description, doc_id)
            if len(calls) == failing_call:
                raise RpcTimeout("home", "kadop.publish", 3)

        router.publish_document = lands_then_times_out
        with pytest.raises(RpcTimeout):
            system.peer("m1").subscribe(cls.TEXT, sub_id="a")
        del router.publish_document
        return system

    def test_a_timed_out_publication_is_never_reused(self):
        system = self.fail_publication()
        assert system.stream_db.all_stream_descriptions() == []
        handle = system.peer("m2").subscribe(self.TEXT, sub_id="b")
        assert handle.plan.find_all(EXISTING) == []
        assert handle.reuse_report.nodes_reused == 0
        assert system.stream_db.verify_index_coherence() == []

    @pytest.mark.parametrize("failing_call", [1, 2])
    def test_a_subscribe_that_raises_mid_deploy_leaves_nothing(self, failing_call):
        system = self.fail_publication(failing_call)
        assert len(system.resources) == 0
        assert system.peer("s0").operators == []
        assert system.compiler.groups == {}
        assert system.stream_db.verify_index_coherence() == []
        assert system.kadop.document_ids == []

    def test_a_failed_publisher_advertisement_gives_its_channel_back(self):
        system = P2PMSystem(seed=3, reliable_control=True, failure_mode="detector")
        for peer_id in ("s0", "m1"):
            system.add_peer(peer_id)
        router = system.stream_db.router
        publish = router.publish_document

        def publisher_times_out(description, doc_id):
            operator = description.find("Operator")
            if operator is not None and operator.find("Publisher") is not None:
                raise RpcTimeout("home", "kadop.publish", 3)
            publish(description, doc_id)

        router.publish_document = publisher_times_out
        text = self.TEXT.replace("return $c;", 'return $c by publish as channel "X";')
        with pytest.raises(RpcTimeout):
            system.peer("m1").subscribe(text, sub_id="a")
        del router.publish_document
        assert len(system.resources) == 0
        assert not system.peer("m1").net.channels.publishes("X")
        # a retry under the same id gets the name back, not a suffixed one
        handle = system.peer("m1").subscribe(text, sub_id="a")
        assert handle.publisher.channel_id == "X" and "#X@m1" in handle.channels_created


class TestReliableCancel:
    """Cancellation under ``reliable_control=True``: advertisements are
    retracted through ``ControlPlaneRouter.retract_document`` and cross-peer
    channel subscriptions are withdrawn by the ``channel.unsubscribe`` RPC
    (``Deployer._unsubscribe_via_rpc``), so every cancel shows up in
    ``rpc_calls``."""

    @staticmethod
    def build(seed=5):
        system = P2PMSystem(seed=seed, reliable_control=True)
        system.add_peer("s0")
        monitor = system.add_peer("monitor")
        return system, monitor

    @staticmethod
    def text(tag):
        # same source and ``where`` (one shared FILTER stream at s0),
        # different ``return``: each subscription pulls its own restructured
        # stream across the s0 -> monitor edge
        return (
            f'for $x in {CHAOS_FUNCTION}(<p>s0</p>) where $x.kind = "chaos" '
            f"return <{tag}><n>{{$x.n}}</n></{tag}>"
        )

    @staticmethod
    def rpc_calls(system):
        return system.network.stats.reliability_snapshot()["rpc_calls"]

    def test_cancel_one_keeps_the_other_then_cancel_both_leaves_nothing(self):
        system, monitor = self.build()
        first = monitor.subscribe(self.text("a"), sub_id="qa")
        second = monitor.subscribe(self.text("b"), sub_id="qb")
        system.run()
        got_first, got_second = [], []
        first.on_result(got_first.append)
        second.on_result(got_second.append)
        workload = ChaosFeedWorkload(["s0"])
        workload.tick(system, 0)
        system.run()
        assert len(got_first) == len(got_second) == 1

        deployed = self.rpc_calls(system)
        first.cancel()
        system.run()
        after_first = self.rpc_calls(system)
        assert after_first > deployed, "cancel must retract and unsubscribe over RPC"
        workload.tick(system, 1)
        system.run()
        assert len(got_first) == 1 and len(got_second) == 2
        assert len(system.resources) > 0

        second.cancel()
        system.run()
        assert self.rpc_calls(system) > after_first
        assert len(system.resources) == 0
        assert system.stream_db.verify_index_coherence() == []
        assert system.kadop.document_ids == []

    @pytest.mark.parametrize("seed", [3, 19, 31])
    def test_lossy_cancel_succeeds_or_fails_typed(self, seed):
        system, monitor = self.build(seed)
        system.network.set_fault_model(FaultModel(loss_rate=0.2, jitter=0.01))
        handles = []
        for tag in ("a", "b"):
            try:
                handles.append(monitor.subscribe(self.text(tag), sub_id=f"q{tag}"))
            except RpcError:
                pass  # typed, before deploying anything
            system.run()
        deployed = self.rpc_calls(system)
        cancelled = 0
        for handle in handles:
            try:
                handle.cancel()
            except RpcError:
                continue
            cancelled += 1
            system.run()
        assert not handles or self.rpc_calls(system) > deployed
        system.network.set_fault_model(None)
        system.run()
        if cancelled == len(handles):
            assert len(system.resources) == 0
            assert system.stream_db.verify_index_coherence() == []
