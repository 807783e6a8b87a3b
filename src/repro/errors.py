"""Exception hierarchy for the repro (KOKO reproduction) package.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class KokoSyntaxError(ReproError):
    """Raised when a KOKO query string cannot be parsed.

    Attributes
    ----------
    message:
        Human readable description of the problem.
    position:
        Character offset into the query text where the problem was detected,
        or ``None`` when the position is unknown.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        self.message = message
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class KokoSemanticError(ReproError):
    """Raised when a parsed query is structurally invalid.

    Examples include referencing a variable before it is declared, binding
    the same variable twice, or using a ``satisfying`` clause for a variable
    that is not part of the output tuple.
    """


class PipelineError(ReproError):
    """Raised when the NLP pipeline cannot annotate its input."""


class ServiceError(ReproError):
    """Raised by the query-serving layer (duplicate or unknown document ids)."""


class DeadlineExceeded(ServiceError):
    """Raised when a query's deadline expires before execution completes.

    The serving layer checks the deadline cooperatively — on entry, before
    each shard is dispatched, and at the start of each shard's scan — so an
    expired deadline abandons the remaining work instead of letting it run
    to completion for a caller that has already given up.
    """


class RpcError(ReproError):
    """Base class for the network serving tier's typed failures.

    Every subclass carries a stable wire ``code`` so a fault can cross the
    connection as data and be re-raised as the same type on the client.
    """

    code = "rpc_error"


class RpcBadRequest(RpcError):
    """The request was malformed or named an operation the node lacks."""

    code = "bad_request"


class RpcRateLimited(RpcError):
    """The client exceeded its token-bucket admission rate."""

    code = "rate_limited"


class RpcDeadlineExceeded(RpcError):
    """The request's deadline expired before the server finished it."""

    code = "deadline_exceeded"


class RpcReadOnly(RpcError):
    """A write was sent to a read-only node (a replica)."""

    code = "read_only"


class RpcStaleRead(RpcError):
    """A read-your-writes token could not be satisfied by this node."""

    code = "stale_read"


class RpcUnavailable(RpcError):
    """The connection failed or the server is shutting down."""

    code = "unavailable"


class RpcServerError(RpcError):
    """The server raised an unexpected error while handling the request."""

    code = "server_error"


class PersistenceError(ReproError):
    """Raised by the durability subsystem (bad snapshot, corrupt WAL...)."""


class ReplicationError(ReproError):
    """Raised by the replication subsystem (shipping, replicas, routing)."""


class EmbeddingError(ReproError):
    """Raised by the embedding / descriptor-expansion subsystem."""
