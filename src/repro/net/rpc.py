"""Request/response RPC over :class:`~repro.net.simnet.SimNetwork`.

``SimNetwork.send`` is fire-and-forget: a control message lost by the
:class:`~repro.net.faults.FaultModel` simply vanishes.  This module layers
the machinery a real deployment would need on top of it:

* **correlation ids** pairing each response with its request;
* **per-call deadlines** via :meth:`SimNetwork.call_later` timers;
* **at-least-once retries** with deterministic jittered exponential
  backoff, drawn from ``runtime_rng`` so identical seeds retry at
  identical times;
* **receiver-side idempotency**: retries reuse the correlation id, and the
  receiver caches its response per id (the seq-dedup pattern of
  :class:`~repro.net.channel.RemoteChannelProxy` applied to RPC) -- a
  duplicate request re-sends the cached response without re-executing, so
  at-least-once delivery still yields at-most-once execution;
* a per-destination **circuit breaker**: repeated timeouts against one
  destination fail subsequent calls fast (:class:`CircuitOpen`) until a
  cooldown elapses and a half-open probe succeeds.

Failures surface as typed :class:`~repro.net.errors.RpcError` subclasses
instead of silent loss; counters land on ``network.stats``
(:meth:`~repro.net.stats.NetworkStats.reliability_snapshot`).

Handlers and callers exchange :class:`Element` payloads.  A handler's
result is carried under the response wrapper and ``params`` under the
request's; neither is copied, so neither may be mutated once handed over.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from repro.net.errors import CircuitOpen, RpcRemoteError, RpcTimeout
from repro.xmlmodel.tree import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.peer import Peer
    from repro.net.simnet import Message, Timer

MSG_REQUEST = "rpc.request"
MSG_RESPONSE = "rpc.response"

#: an RPC method: ``handler(params, source_peer_id) -> result element``
RpcHandler = Callable[[Element, str], "Element | None"]


class RetryPolicy:
    """Deadline and retry schedule of every RPC call.

    Attempt ``n`` (0-based) waits ``BASE_TIMEOUT * BACKOFF**n`` scaled by a
    uniform jitter factor in ``[1, 1 + JITTER]`` before retrying.  The total
    budget is ~3.15s of simulated time over ``MAX_ATTEMPTS`` attempts,
    against a simulated RTT of at most ~0.03s.
    """

    MAX_ATTEMPTS = 6
    BASE_TIMEOUT = 0.05
    BACKOFF = 2.0
    JITTER = 0.5

    @classmethod
    def timeout_for(cls, attempt: int, rng: random.Random) -> float:
        span = cls.BASE_TIMEOUT * cls.BACKOFF**attempt
        return span * (1.0 + cls.JITTER * rng.random())


class CircuitBreaker:
    """Per-destination failure gate (closed -> open -> half-open).

    ``FAILURE_THRESHOLD`` consecutive exhausted calls open the circuit;
    while open, calls are rejected without touching the network.  After
    ``COOLDOWN`` seconds of simulated time one probe call is let through
    (half-open): success closes the circuit, failure re-opens it.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    FAILURE_THRESHOLD = 3
    COOLDOWN = 0.25

    __slots__ = ("failures", "state", "_open_until")

    def __init__(self) -> None:
        self.failures = 0
        self.state = self.CLOSED
        self._open_until = 0.0

    def allow(self, now: float) -> bool:
        """Whether a call may be attempted at simulated time ``now``."""
        if self.state == self.OPEN:
            if now >= self._open_until:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        self.failures = 0
        self.state = self.CLOSED

    def record_failure(self, now: float) -> bool:
        """Note an exhausted call; returns True when the circuit newly opens."""
        self.failures += 1
        if self.state == self.HALF_OPEN or self.failures >= self.FAILURE_THRESHOLD:
            newly = self.state != self.OPEN
            self.state = self.OPEN
            self._open_until = now + self.COOLDOWN
            return newly
        return False


class RpcCall:
    """Handle for one in-flight (or completed) RPC call."""

    __slots__ = (
        "call_id",
        "destination",
        "method",
        "request",
        "attempt",
        "timer",
        "done",
        "result",
        "error",
    )

    def __init__(
        self, call_id: str, destination: str, method: str, request: Element
    ) -> None:
        self.call_id = call_id
        self.destination = destination
        self.method = method
        self.request = request
        self.attempt = 0
        self.timer: Timer | None = None
        self.done = False
        self.result: Element | None = None
        self.error: Exception | None = None

    def value(self) -> Element | None:
        """The result element; raises the call's error if it failed."""
        if not self.done:
            raise RuntimeError(f"rpc call {self.call_id} is still in flight")
        if self.error is not None:
            raise self.error
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else f"attempt={self.attempt}"
        return f"RpcCall({self.method!r}->{self.destination!r}, {state})"


class RpcEndpoint:
    """Per-peer RPC stack: client (call/retry/breaker) plus server (dispatch).

    One endpoint owns the ``rpc.request``/``rpc.response`` message kinds of
    its peer; methods are registered by name with :meth:`register`.
    """

    #: completed-response cache size; a duplicate request older than this
    #: many distinct calls may re-execute (the retry window is far shorter)
    RESPONSE_CACHE_LIMIT = 4096

    def __init__(self, peer: Peer) -> None:
        self.peer = peer
        self.network = peer.network
        self._methods: dict[str, RpcHandler] = {}
        self._calls: dict[str, RpcCall] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._responses: OrderedDict[str, Element] = OrderedDict()
        self._counter = 0
        peer.register_handler(MSG_REQUEST, self._on_request)
        peer.register_handler(MSG_RESPONSE, self._on_response)

    # -- server side ------------------------------------------------------- #

    def register(self, method: str, handler: RpcHandler) -> None:
        """Expose ``handler`` as RPC method ``method`` on this peer."""
        if method in self._methods:
            raise ValueError(
                f"peer {self.peer.peer_id!r} already exposes rpc method {method!r}"
            )
        self._methods[method] = handler

    def _on_request(self, message: Message) -> None:
        attrib = message.payload.attrib
        call_id = attrib["callId"]
        cached = self._responses.get(call_id)
        if cached is not None:
            # duplicate (a retry, or a fault-model copy): idempotency -- re-send
            # the recorded outcome without re-executing the handler
            self._responses.move_to_end(call_id)
            self.network.send(self.peer.peer_id, message.source, MSG_RESPONSE, cached)
            return
        method = attrib["method"]
        handler = self._methods.get(method)
        params = (
            message.payload.children[0]
            if message.payload.children
            else Element("args")
        )
        if handler is None:
            response = Element(
                "rpcResponse",
                {"callId": call_id, "ok": "0", "error": f"unknown method {method!r}"},
            )
        else:
            try:
                result = handler(params, message.source)
            except Exception as exc:  # noqa: BLE001 - travels back typed
                response = Element(
                    "rpcResponse",
                    {
                        "callId": call_id,
                        "ok": "0",
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
            else:
                response = Element(
                    "rpcResponse",
                    {"callId": call_id, "ok": "1"},
                    [result] if result is not None else [],
                )
        self._responses[call_id] = response
        if len(self._responses) > self.RESPONSE_CACHE_LIMIT:
            self._responses.popitem(last=False)
        self.network.send(self.peer.peer_id, message.source, MSG_RESPONSE, response)

    # -- client side ------------------------------------------------------- #

    def breaker(self, destination: str) -> CircuitBreaker:
        existing = self._breakers.get(destination)
        if existing is None:
            existing = self._breakers[destination] = CircuitBreaker()
        return existing

    def call(
        self, destination: str, method: str, params: Element | None = None
    ) -> RpcCall:
        """Start an RPC; returns a handle that completes as the network runs.

        Raises :class:`CircuitOpen` synchronously when the destination's
        breaker rejects the call.  Otherwise the call retries with backoff
        until a response arrives or the retry budget is exhausted, at which
        point the handle carries an :class:`RpcTimeout`.
        """
        stats = self.network.stats
        breaker = self.breaker(destination)
        if not breaker.allow(self.network.now):
            stats.rpc_rejected += 1
            raise CircuitOpen(destination, method)
        self._counter += 1
        call_id = f"{self.peer.peer_id}#{self._counter}"
        request = Element(
            "rpcRequest",
            {"callId": call_id, "method": method},
            [params] if params is not None else [],
        )
        call = RpcCall(call_id, destination, method, request)
        self._calls[call_id] = call
        stats.rpc_calls += 1
        self._transmit(call)
        return call

    def call_sync(
        self, destination: str, method: str, params: Element | None = None
    ) -> Element | None:
        """Issue the call and pump the network until it completes.

        Delivers queued events (including unrelated ones, in deterministic
        time order) until the response or the final timeout lands; safe to
        invoke from inside a handler because heap pops are destructive.
        Returns the result element, or raises the call's typed error.
        """
        call = self.call(destination, method, params)
        network = self.network
        while not call.done:
            if not network.step():
                # unreachable while the deadline timer is armed; guard anyway
                raise RpcTimeout(destination, method, call.attempt + 1)
        return call.value()

    def _transmit(self, call: RpcCall) -> None:
        self.network.send(
            self.peer.peer_id, call.destination, MSG_REQUEST, call.request
        )
        timeout = RetryPolicy.timeout_for(call.attempt, self.network.runtime_rng)
        call.timer = self.network.call_later(timeout, lambda: self._on_deadline(call))

    def _on_deadline(self, call: RpcCall) -> None:
        if call.done:
            return
        stats = self.network.stats
        call.attempt += 1
        if call.attempt >= RetryPolicy.MAX_ATTEMPTS:
            stats.rpc_timeouts += 1
            if self.breaker(call.destination).record_failure(self.network.now):
                stats.circuits_opened += 1
            self._finish(
                call, error=RpcTimeout(call.destination, call.method, call.attempt)
            )
            return
        stats.rpc_retries += 1
        self._transmit(call)

    def _on_response(self, message: Message) -> None:
        # any response proves the link works, even one carrying a remote error
        self.breaker(message.source).record_success()
        attrib = message.payload.attrib
        call = self._calls.get(attrib["callId"])
        if call is None:
            return  # stale: a duplicate, or the call already timed out
        if attrib.get("ok") == "1":
            result = (
                message.payload.children[0] if message.payload.children else None
            )
            self._finish(call, result=result)
        else:
            self._finish(
                call,
                error=RpcRemoteError(
                    call.destination, call.method, attrib.get("error", "")
                ),
            )

    def _finish(
        self,
        call: RpcCall,
        result: Element | None = None,
        error: Exception | None = None,
    ) -> None:
        call.done = True
        call.result = result
        call.error = error
        if call.timer is not None:
            call.timer.cancel()
        self._calls.pop(call.call_id, None)

    @property
    def in_flight(self) -> int:
        return len(self._calls)

    def open_circuits(self) -> list[str]:
        """Destinations whose breaker is currently open."""
        return sorted(
            destination
            for destination, breaker in self._breakers.items()
            if breaker.state == CircuitBreaker.OPEN
        )
