"""Exceptions raised by the network substrate."""


class NetworkError(RuntimeError):
    """Base class for network-level failures."""


class UnknownPeerError(NetworkError):
    """Raised when sending to or looking up a peer that is not registered."""


class UnknownChannelError(NetworkError):
    """Raised when subscribing to a channel that the peer does not publish."""


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


class ShardError(NetworkError):
    """Base class for failures of the sharded execution runtime."""


class ShardWorkerError(ShardError):
    """A shard worker's command handler raised.

    The worker keeps the lock-step protocol alive by recording the formatted
    traceback and shipping it on its next reply; the parent re-raises it here
    with every remote traceback intact.
    """

    def __init__(self, tracebacks: list[str]) -> None:
        super().__init__("shard worker error:\n" + "\n".join(tracebacks))
        self.tracebacks = list(tracebacks)


class WorkerFailure(ShardError):
    """A shard worker *process* was lost (see the concrete subclasses).

    Distinct from :class:`ShardWorkerError`: here the worker itself is gone
    (or untrustworthy) and cannot report anything -- the parent
    classified the loss from the outside.
    """

    #: how the parent classified the loss; set by subclasses
    kind = "lost"

    def __init__(self, shard: int, detail: str) -> None:
        super().__init__(f"shard worker {shard} {self.kind}: {detail}")
        self.shard = shard
        self.detail = detail


class WorkerCrashed(WorkerFailure):
    """The worker process exited (nonzero exit code, signal, or pipe EOF)."""

    kind = "crashed"


class WorkerHung(WorkerFailure):
    """The worker missed its turn deadline while still alive; it was killed."""

    kind = "hung"


class WorkerPoisoned(WorkerFailure):
    """The worker replied outside the protocol; its state is untrusted and
    the process was killed."""

    kind = "poisoned"


class FailoverImpossible(ShardError):
    """Too many shards are gone for failover to preserve the deployment.

    Raised (instead of hanging or silently degrading) when more than half
    the shard workers have been lost; the run is aborted and every
    subsequent ``run``/``tick``/``drive`` re-raises the same error.
    """

    def __init__(self, lost: list[int], shards: int) -> None:
        super().__init__(
            f"failover impossible: {len(lost)} of {shards} shard workers lost "
            f"(shards {lost}); aborting instead of degrading past quorum"
        )
        self.lost = list(lost)
        self.shards = shards
