"""Exceptions raised by the network substrate."""


class NetworkError(RuntimeError):
    """Base class for network-level failures."""


class UnknownPeerError(NetworkError):
    """Raised when sending to or looking up a peer that is not registered."""


class UnknownChannelError(NetworkError):
    """Raised when subscribing to a channel that the peer does not publish."""


class PayloadError(NetworkError):
    """A control-plane payload no record renders, refused: ``missing`` names what it lacks."""

    def __init__(self, tag: str, missing: str) -> None:
        super().__init__(f"refused a <{tag}> payload without {missing}")
        self.missing = missing


class RpcError(NetworkError):
    """Base class for failures of the request/response RPC layer."""


class RpcTimeout(RpcError):
    """An RPC exhausted its retry budget without receiving a response.

    At-least-once semantics: the request may still be executing (or may
    execute later, e.g. after a partition heals) -- receiver-side
    idempotency keys guarantee it executes at most once regardless.
    """

    def __init__(self, destination: str, method: str, attempts: int) -> None:
        super().__init__(
            f"rpc {method!r} to {destination!r} timed out after {attempts} attempt(s)"
        )
        self.destination = destination
        self.method = method
        self.attempts = attempts


class CircuitOpen(RpcError):
    """The per-destination circuit breaker is open: the call was not sent.

    Repeated timeouts against one destination trip its breaker; further
    calls fail fast (graceful degradation) until the cooldown elapses and a
    half-open probe succeeds.
    """

    def __init__(self, destination: str, method: str) -> None:
        super().__init__(
            f"circuit open for destination {destination!r}: rpc {method!r} rejected"
        )
        self.destination = destination
        self.method = method


class RpcRemoteError(RpcError):
    """The remote handler raised; the error travelled back in the response."""

    def __init__(self, destination: str, method: str, detail: str) -> None:
        super().__init__(f"rpc {method!r} at {destination!r} failed remotely: {detail}")
        self.destination = destination
        self.method = method
        self.detail = detail

