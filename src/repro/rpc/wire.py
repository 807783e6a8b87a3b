"""Messages, result body and fault mapping of the query/ingest RPC tier.

Frames, the HMAC handshake and the trust model are the network layer's
(:mod:`repro.net`), shared with replication; this module says what goes
inside a frame.

A **request** payload is one pickled message, and so are responses that
carry no query result (faults, acks, ``info``, and for now the lists of
``query_batch``).  A response whose value is a
:class:`~repro.koko.results.KokoResult` — every ``query`` answer, hit or
miss — is laid out as ``len ‖ envelope ‖ body`` inside the one frame:

* the **envelope** is the small per-response pickle — an
  :class:`RpcResponse` whose ``value`` is a :class:`BodyFollows` marker
  naming the body's length and codec instead of the value itself;
* the **body** is typed, not pickled: the ``columns-v1`` encoding of the
  result's :class:`~repro.koko.results.ResultColumns`
  (:func:`encode_body`) — a struct header with the row and column counts,
  sentence counters and stage timings, then length-prefixed little-endian
  arrays and UTF-8 string tables.  For a cached answer the server encodes
  it once and keeps it in the result-cache entry beside the value, so a
  repeated answer is not re-encoded per reader.

:func:`encode_message` builds both shapes (a stored body rides as its
optional second argument; a result without one is encoded on the spot)
and :func:`decode_response` reads both, for both clients.  The body
decoder (:func:`decode_body`) checks every length, offset, index and
dtype before it builds anything, wraps the numeric columns in place with
``np.frombuffer``, and builds no tuple: the client's result materialises
its ``ExtractionTuple`` objects when it is iterated.  The marker is
explicit so that a decoder which does not know it sees a foreign object
in ``value``, never a plausible ``None``.

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

Requests and envelopes are pickles, so the trust model of
:mod:`repro.net` applies; only the result body is typed so far.
"""

from __future__ import annotations

import io
import pickle
import struct
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain
from operator import ge
from typing import NoReturn

import numpy as np

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
from ..koko.results import KokoResult, ResultColumns, StageTimings, index_dtype
from ..net import FrameError, FrameTooLarge
from ..observability.tracing import TraceContext

__all__ = [
    "BODY_CODEC",
    "BodyFollows",
    "FrameError",
    "FrameTooLarge",
    "RpcFault",
    "RpcRequest",
    "RpcResponse",
    "TraceContext",
    "decode_body",
    "decode_message",
    "decode_response",
    "encode_body",
    "encode_message",
    "fault_for",
    "raise_fault",
]

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


#: the one body codec: a ``KokoResult`` as typed columns
BODY_CODEC = "columns-v1"


@dataclass(frozen=True)
class BodyFollows:
    """Stands in an envelope's ``value`` place: the value is not in this
    pickle — its *nbytes* bytes, encoded with *codec*, follow the envelope
    inside the same frame."""

    nbytes: int
    codec: str = BODY_CODEC


# -- the columns-v1 body ------------------------------------------------

_BODY_MAGIC = b"KKRC"
_BODY_VERSION = 1
#: magic, version, section count, rows, output variables, scored
#: variables, candidate and evaluated sentences, the six ``StageTimings``
_BODY_HEADER = struct.Struct("<4sHHIHHqq6d")
#: one section's dtype code and byte length; its bytes follow
_SECTION = struct.Struct("<BQ")
_DTYPES = tuple(
    np.dtype(code)
    for code in ("<u1", "<u2", "<u4", "<u8", "<i1", "<i2", "<i4", "<i8", "<f8", "?")
)
_DTYPE_CODES = {dtype.str: code for code, dtype in enumerate(_DTYPES)}
_UNSIGNED = frozenset({0, 1, 2, 3})
#: the dtype codes each of the seven sections may carry, in body order:
#: table sizes, string end offsets, UTF-8 bytes, index matrix, sids,
#: scores, presence
_SECTION_CODES = (
    _UNSIGNED,
    _UNSIGNED,
    frozenset({0}),
    _UNSIGNED,
    frozenset(range(8)),
    frozenset({8}),
    frozenset({9}),
)


def encode_body(result: KokoResult) -> bytes:
    """Encode one ``KokoResult`` as a ``columns-v1`` body.

    A :data:`_BODY_HEADER`, then seven sections, each ``u8 dtype code ‖
    u64 byte length ‖ little-endian array bytes``:

    1. the sizes of the doc-id table and of each output variable's table;
    2. cumulative UTF-8 end offsets of every string — the variable names
       (outputs, then scored), the doc ids, then each output's table;
    3. those strings' UTF-8 bytes;
    4. the index matrix (``ResultColumns.index``), row-major: the doc
       column, then each output's index column;
    5. the sid column;
    6. the ``float64`` score matrix, one row per scored variable;
    7. the ``bool`` presence matrix, likewise.

    Nothing is pickled.
    """
    columns = result.columns
    tables = (columns.doc_ids, *columns.strings)
    encoded = [
        text.encode("utf-8", "surrogatepass")
        for text in chain(columns.variables, columns.scored, *tables)
    ]
    sizes = [len(table) for table in tables]
    text = b"".join(encoded)
    sections = [
        np.array(sizes, index_dtype(max(sizes) + 1)),
        np.array(list(accumulate(map(len, encoded))), index_dtype(len(text) + 1)),
        np.frombuffer(text, np.uint8),
        columns.index,
        columns.sid,
        columns.scores,
        columns.present,
    ]
    timings = result.timings
    parts = [
        _BODY_HEADER.pack(
            _BODY_MAGIC,
            _BODY_VERSION,
            len(sections),
            len(columns),
            len(columns.variables),
            len(columns.scored),
            result.candidate_sentences,
            result.evaluated_sentences,
            timings.normalize,
            timings.dpli,
            timings.load_articles,
            timings.gsp,
            timings.extract,
            timings.satisfying,
        )
    ]
    for array in sections:
        if array.dtype.byteorder == ">":
            array = array.astype(array.dtype.newbyteorder("<"))
        parts += [_SECTION.pack(_DTYPE_CODES[array.dtype.str], array.nbytes), array.tobytes()]
    return b"".join(parts)


def _read_sections(body: memoryview, offset: int) -> list[np.ndarray]:
    """The seven sections from *offset* on, which must end exactly at the end."""
    sections = []
    for allowed in _SECTION_CODES:
        if offset + _SECTION.size > len(body):
            raise FrameError("columns body ends inside a section header")
        code, nbytes = _SECTION.unpack_from(body, offset)
        offset += _SECTION.size
        if code not in allowed:
            raise FrameError(
                f"columns body section {len(sections)} has dtype code {code}"
            )
        dtype = _DTYPES[code]
        if nbytes > len(body) - offset or nbytes % dtype.itemsize:
            raise FrameError(f"columns body section of {nbytes} bytes does not fit")
        sections.append(np.frombuffer(body, dtype, nbytes // dtype.itemsize, offset))
        offset += nbytes
    if offset != len(body):
        raise FrameError(f"{len(body) - offset} bytes trail the columns body")
    return sections


def _strings(ends: np.ndarray, text: np.ndarray) -> list[str]:
    """Every string of the body, its offsets and UTF-8 checked."""
    bounds = [0, *ends.tolist()]
    if bounds[-1] != len(text) or sorted(bounds) != bounds:
        raise FrameError("columns body string offsets are not monotonic")
    data = text.data
    try:
        whole = str(data, "utf-8", "surrogatepass")
        if len(whole) == len(text):  # ASCII: byte offsets are character offsets
            return [whole[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        return [
            str(data[lo:hi], "utf-8", "surrogatepass")
            for lo, hi in zip(bounds, bounds[1:])
        ]
    except UnicodeDecodeError as exc:
        raise FrameError(f"columns body strings are not UTF-8: {exc}") from None


def decode_body(body) -> KokoResult:
    """Inverse of :func:`encode_body`; wraps the numeric columns without copying.

    Fails closed: the magic, the version, the section count, every
    section's dtype code and length, monotonic string offsets, UTF-8,
    every index within its table and equal row counts are checked before
    a result is constructed; anything amiss raises :class:`FrameError`.
    """
    body = memoryview(body).cast("B")
    if len(body) < _BODY_HEADER.size:
        raise FrameError("columns body is shorter than its header")
    (
        magic, version, count, rows, outputs, scored, candidate, evaluated, *seconds
    ) = _BODY_HEADER.unpack_from(body)
    if magic != _BODY_MAGIC:
        raise FrameError(f"columns body has bad magic {magic!r}")
    if version != _BODY_VERSION:
        raise FrameError(f"columns body version {version} is unknown")
    if count != len(_SECTION_CODES):
        raise FrameError(f"columns body announces {count} sections")
    sizes, ends, text, index, sid, scores, present = _read_sections(
        body, _BODY_HEADER.size
    )
    named, table_sizes = outputs + scored, sizes.tolist()
    if len(table_sizes) != 1 + outputs or len(ends) != named + sum(table_sizes):
        raise FrameError("columns body string tables do not match its header")
    if (
        len(index) != (1 + outputs) * rows
        or len(sid) != rows
        or len(scores) != scored * rows
        or len(present) != scored * rows
    ):
        raise FrameError(f"columns body columns do not all have {rows} rows")
    index = index.reshape(1 + outputs, rows)
    if rows and any(map(ge, index.max(axis=1).tolist(), table_sizes)):
        raise FrameError("columns body index points outside its table")
    if len(present) and present.view(np.uint8).max() > 1:
        raise FrameError("columns body presence is not boolean")
    strings = _strings(ends, text)
    tables, start = [], named
    for size in table_sizes:
        tables.append(tuple(strings[start : start + size]))
        start += size
    columns = ResultColumns(
        tables[0],
        sid,
        tuple(strings[:outputs]),
        tuple(tables[1:]),
        index,
        tuple(strings[outputs:named]),
        scores.reshape(scored, rows),
        present.reshape(scored, rows),
    )
    return KokoResult.from_columns(
        columns, StageTimings(*seconds), candidate, evaluated
    )


def encode_message(message: object, body: bytes | None = None) -> bytes:
    """Serialise one message into a frame payload (highest-protocol pickle).

    A response whose value is a ``KokoResult`` is always ``envelope ‖
    body``: *body* is its :func:`encode_body` bytes when the caller kept
    them (a cached answer), and is encoded here otherwise, so a result is
    never pickled into a response.
    """
    if body is None and isinstance(getattr(message, "value", None), KokoResult):
        body = encode_body(message.value)
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
    if marker.codec != BODY_CODEC:
        raise FrameError(f"response body uses unknown codec {marker.codec!r}")
    if marker.nbytes != trailing:
        raise FrameError(
            f"response announced a body of {marker.nbytes} bytes, "
            f"{trailing} arrived"
        )
    return replace(response, value=decode_body(memoryview(payload)[envelope_end:]))


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
