"""Wire format of the query/ingest RPC tier.

The RPC tier frames like the replication transport
(:class:`~repro.replication.transport.TcpTransport`): a little-endian
``u64`` length prefix, then the payload, after the same mutual HMAC
challenge-response before any byte is unpickled (async variants of the
handshake live here for the asyncio server and client).  The blocking
client therefore reads and writes its frames through a ``TcpTransport``.

A **request** payload, and most response payloads, are one pickled
message.  A response that carries a *cached* query result is laid out as
``len ‖ envelope ‖ body`` inside the one frame:

* the **envelope** is the small per-response pickle — an
  :class:`RpcResponse` whose ``value`` is a :class:`BodyFollows` marker
  naming the body's length and codec instead of the value itself;
* the **body** is the value's encoding (:func:`encode_body`), which the
  server computed once and keeps in the result-cache entry beside the
  value, so a repeated answer is not re-encoded per reader.

:func:`encode_message` builds both shapes (the stored body rides as its
optional second argument) and :func:`decode_response` reads both, for
both clients.  The marker is explicit so that a decoder which does not
know it sees a foreign object in ``value``, never a plausible ``None``;
the body's codec name is the seam a typed codec replacing pickle plugs
into.

Messages are two frozen dataclasses:

* :class:`RpcRequest` — ``op`` (operation name), ``args`` (keyword
  payload), plus four headers: ``request_id`` (echoed back so a client
  can pipeline), ``client_id`` (the admission-control identity),
  ``deadline`` (a **relative** seconds budget — relative so clock skew
  between client and server cannot distort it; the server anchors it to
  its own monotonic clock at receipt) and ``trace`` (an optional
  :class:`~repro.observability.tracing.TraceContext` — the server
  continues the caller's trace instead of sampling locally).
* :class:`RpcResponse` — the echoed ``request_id``, either a ``value``
  or an :class:`RpcFault` carrying a stable error ``code`` that
  :func:`raise_fault` maps back to the typed
  :class:`~repro.errors.RpcError` hierarchy on the client, and
  ``server_ms`` (server-side dispatch wall time, so every client —
  traced or not — can split wire time from server time).

**Trust model**: identical to the replication transport — pickled frames
stay inside one trust domain, the token gates accidental exposure.
"""

from __future__ import annotations

import asyncio
import hmac
import io
import os
import pickle
import struct
from dataclasses import dataclass, field, replace
from typing import NoReturn

from ..errors import (
    DeadlineExceeded,
    KokoSemanticError,
    KokoSyntaxError,
    ReplicationError,
    RpcBadRequest,
    RpcDeadlineExceeded,
    RpcError,
    RpcRateLimited,
    RpcReadOnly,
    RpcServerError,
    RpcStaleRead,
    RpcUnavailable,
    ServiceError,
)
from ..observability.tracing import TraceContext
from ..replication.transport import (
    _AUTH_DIGEST_LEN,
    _AUTH_NONCE_LEN,
    _auth_digest,
)

__all__ = [
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
    "BodyFollows",
    "FrameError",
    "FrameTooLarge",
    "IdleTimer",
    "RpcFault",
    "RpcRequest",
    "RpcResponse",
    "TraceContext",
    "answer_auth_challenge_async",
    "decode_message",
    "decode_response",
    "encode_body",
    "encode_message",
    "fault_for",
    "frame_message",
    "issue_auth_challenge_async",
    "raise_fault",
    "read_frame",
]

#: the length prefix — identical to ``TcpTransport``'s, on purpose
FRAME_HEADER = struct.Struct("<Q")

#: default upper bound on one frame; a header announcing more is treated
#: as garbage and the connection is dropped before any allocation
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(RpcError):
    """The byte stream did not contain a well-formed frame."""

    code = "bad_frame"


class FrameTooLarge(FrameError):
    """A frame header announced a payload over the configured bound."""

    code = "frame_too_large"


@dataclass(frozen=True)
class RpcRequest:
    """One client request: operation, payload, and the four headers."""

    op: str
    args: dict = field(default_factory=dict)
    request_id: int = 0
    client_id: str | None = None
    deadline: float | None = None  # relative seconds budget, None = none
    trace: TraceContext | None = None  # propagated trace context, None = untraced


@dataclass(frozen=True)
class RpcFault:
    """A typed failure crossing the wire as data (code + message)."""

    code: str
    message: str


@dataclass(frozen=True)
class RpcResponse:
    """One server response: the echoed id and a value *or* a fault.

    ``server_ms`` is the server-side dispatch wall time in milliseconds
    (admission wait + queue wait + handler), set on success *and* fault
    responses; subtracting it from the client-observed round trip gives
    the wire + handshake share without any tracing enabled.
    """

    request_id: int
    value: object = None
    fault: RpcFault | None = None
    server_ms: float | None = None


@dataclass(frozen=True)
class BodyFollows:
    """Stands in an envelope's ``value`` place: the value is not in this
    pickle — its *nbytes* bytes, encoded with *codec*, follow the envelope
    inside the same frame."""

    nbytes: int
    codec: str = "pickle"


def encode_body(value: object) -> bytes:
    """Encode one response value on its own, to be kept and sent many times."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def encode_message(message: object, body: bytes | None = None) -> bytes:
    """Serialise one message into a frame payload (highest-protocol pickle).

    With *body* — the :func:`encode_body` bytes of ``message.value``,
    which must be an :class:`RpcResponse`'s — the payload is ``envelope ‖
    body`` and the value itself is not pickled again.
    """
    if body is None:
        return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = replace(message, value=BodyFollows(len(body)))
    return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL) + body


def decode_message(payload: bytes) -> object:
    """Inverse of single-pickle :func:`encode_message`; raises
    :class:`FrameError` on bytes that do not decode."""
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise FrameError(f"undecodable frame payload: {exc!r}") from exc


def decode_response(payload: bytes) -> RpcResponse:
    """Decode one response payload of either shape into an
    :class:`RpcResponse` that carries its value.

    Raises :class:`FrameError` when the payload is not a response, when
    bytes trail a response that announced no body, when the body's length
    differs from the marker's, or when the marker names an unknown codec.
    """
    stream = io.BytesIO(payload)
    try:
        response = pickle.load(stream)
    except Exception as exc:
        raise FrameError(f"undecodable frame payload: {exc!r}") from exc
    if not isinstance(response, RpcResponse):
        raise FrameError(f"unexpected message from server: {response!r}")
    envelope_end = stream.tell()
    trailing = len(payload) - envelope_end
    marker = response.value
    if not isinstance(marker, BodyFollows):
        if trailing:
            raise FrameError(f"{trailing} bytes trail a response without a body")
        return response
    if marker.codec != "pickle":
        raise FrameError(f"response body uses unknown codec {marker.codec!r}")
    if marker.nbytes != trailing:
        raise FrameError(
            f"response announced a body of {marker.nbytes} bytes, "
            f"{trailing} arrived"
        )
    return replace(
        response, value=decode_message(memoryview(payload)[envelope_end:])
    )


def frame_message(payload: bytes) -> bytes:
    """Prefix an encoded payload with the u64 length header."""
    return FRAME_HEADER.pack(len(payload)) + payload


class IdleTimer:
    """The idle / slow-loris guard of one connection: one timer, re-armed.

    :func:`read_frame` calls :meth:`start` when it begins waiting for a
    frame and :meth:`stop` once the frame is whole; a read still pending
    *timeout* seconds after its start fails with
    :class:`asyncio.TimeoutError`.  Starting and stopping only move a
    deadline — the one ``call_at`` handle is re-armed when it fires, not
    per request — so the guard costs a busy connection a clock read per
    frame instead of a task and a timer.  :meth:`cancel` when the
    connection closes.
    """

    def __init__(self, reader: asyncio.StreamReader, timeout: float) -> None:
        self._reader = reader
        self._timeout = timeout
        self._loop = asyncio.get_running_loop()
        self._deadline: float | None = None  # set while a frame read is pending
        self._handle: asyncio.TimerHandle | None = None

    def start(self) -> None:
        """A frame read begins: it must finish within the timeout."""
        self._deadline = self._loop.time() + self._timeout
        if self._handle is None:
            self._handle = self._loop.call_at(self._deadline, self._fire)

    def stop(self) -> None:
        """The frame read ended; nothing is pending."""
        self._deadline = None

    def cancel(self) -> None:
        """The connection is closing: drop the timer."""
        self._deadline = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        deadline = self._deadline
        if deadline is None:
            return  # no read pending: the next start() arms a new timer
        if self._loop.time() < deadline:
            self._handle = self._loop.call_at(deadline, self._fire)
        else:
            # wakes the pending read with the error; the stream is unusable
            # afterwards, which is the point — the connection is dropped
            self._reader.set_exception(asyncio.TimeoutError())


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    idle: IdleTimer | None = None,
) -> bytes | None:
    """Read one whole frame payload from an asyncio stream.

    Returns ``None`` on a clean EOF at a frame boundary.  Raises
    :class:`FrameTooLarge` when the header announces more than
    *max_frame_bytes* (the stream cannot be resynchronised — drop the
    connection), :class:`FrameError` on a mid-frame EOF, and
    :class:`asyncio.TimeoutError` when *idle*'s timeout elapses first (the
    slow-loris guard: a peer trickling header bytes forever is cut off).
    """
    if idle is not None:
        idle.start()
    try:
        try:
            header = await reader.readexactly(FRAME_HEADER.size)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between frames
            raise FrameError("connection closed mid-header") from exc
        (length,) = FRAME_HEADER.unpack(header)
        if length > max_frame_bytes:
            raise FrameTooLarge(
                f"frame of {length} bytes exceeds the {max_frame_bytes}-byte bound"
            )
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise FrameError("connection closed mid-frame") from exc
    finally:
        if idle is not None:
            idle.stop()


# -- fault mapping ------------------------------------------------------

_FAULT_TYPES: dict[str, type[RpcError]] = {
    cls.code: cls
    for cls in (
        RpcBadRequest,
        RpcRateLimited,
        RpcDeadlineExceeded,
        RpcReadOnly,
        RpcStaleRead,
        RpcUnavailable,
        RpcServerError,
        FrameError,
        FrameTooLarge,
    )
}


def fault_for(exc: BaseException) -> RpcFault:
    """Map a server-side exception to the :class:`RpcFault` it ships as.

    Typed RPC errors keep their code; the service layer's client-caused
    failures (bad query syntax/semantics, duplicate or unknown doc ids)
    become ``bad_request``; a replica's read-only rejection becomes
    ``read_only``; an expired cooperative deadline becomes
    ``deadline_exceeded``; everything else is a ``server_error``.
    """
    if isinstance(exc, RpcError):
        return RpcFault(code=exc.code, message=str(exc))
    if isinstance(exc, DeadlineExceeded):
        return RpcFault(code=RpcDeadlineExceeded.code, message=str(exc))
    if isinstance(exc, (KokoSyntaxError, KokoSemanticError, ServiceError)):
        return RpcFault(
            code=RpcBadRequest.code, message=f"{type(exc).__name__}: {exc}"
        )
    if isinstance(exc, ReplicationError):
        return RpcFault(code=RpcReadOnly.code, message=str(exc))
    return RpcFault(
        code=RpcServerError.code, message=f"{type(exc).__name__}: {exc}"
    )


def raise_fault(fault: RpcFault) -> NoReturn:
    """Re-raise a wire fault as its typed client-side exception."""
    raise _FAULT_TYPES.get(fault.code, RpcServerError)(fault.message)


# -- async HMAC handshake ----------------------------------------------
#
# The same mutual challenge-response as the replication transport (see
# its module docstring for the protocol), transliterated to asyncio
# streams for the RPC server and async client.


async def issue_auth_challenge_async(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    token: bytes | str,
) -> bool:
    """Listener side of the mutual handshake (asyncio); True on success."""
    server_nonce = os.urandom(_AUTH_NONCE_LEN)
    writer.write(server_nonce)
    await writer.drain()
    answer = await reader.readexactly(_AUTH_NONCE_LEN + _AUTH_DIGEST_LEN)
    client_nonce, digest = answer[:_AUTH_NONCE_LEN], answer[_AUTH_NONCE_LEN:]
    if not hmac.compare_digest(
        digest, _auth_digest(token, b"client", server_nonce)
    ):
        return False
    writer.write(_auth_digest(token, b"server", client_nonce))
    await writer.drain()
    return True


async def answer_auth_challenge_async(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    token: bytes | str,
) -> None:
    """Dialer side of the mutual handshake (asyncio); raises
    :class:`RpcUnavailable` when the listener cannot prove the token."""
    server_nonce = await reader.readexactly(_AUTH_NONCE_LEN)
    client_nonce = os.urandom(_AUTH_NONCE_LEN)
    writer.write(client_nonce + _auth_digest(token, b"client", server_nonce))
    await writer.drain()
    proof = await reader.readexactly(_AUTH_DIGEST_LEN)
    if not hmac.compare_digest(
        proof, _auth_digest(token, b"server", client_nonce)
    ):
        raise RpcUnavailable(
            "server failed the auth handshake: wrong or missing token"
        )
