"""Clients for the query/ingest RPC tier: blocking and asyncio.

:class:`RpcClient` is the blocking client.  Because the RPC wire dialect
is the replication transport's framing plus the same HMAC handshake, the
blocking client sends and receives its frames through a
:class:`~repro.replication.transport.TcpTransport` — no second framing
implementation to keep in sync.  A response payload of either shape
(:mod:`repro.rpc.wire`) is decoded, matched to its request and accounted
by one method both clients share (:meth:`_CallMixin._complete_call`).

:class:`AsyncRpcClient` is the asyncio twin for event-loop callers (and
for tests that drive many concurrent requests without threads).

Both expose the same surface: ``query``, ``query_batch``,
``add_document`` / ``add_documents`` (with ``wait_durable=False`` for
pipelined acks), ``remove_document``, ``flush`` (the durability
barrier), ``ping`` and ``info``.  Server faults come back as the typed
:class:`~repro.errors.RpcError` subclasses (``raise_fault``); a dropped
connection surfaces as :class:`~repro.errors.RpcUnavailable`.

Every request carries the client's ``client_id`` (the admission-control
identity — defaults to a per-process-unique name) and an optional
``deadline``: a **relative** seconds budget the server anchors to its own
clock, immune to client/server clock skew.

**Tracing and timing.**  Both clients accept ``trace_sample_rate``: a
sampled call opens a client-side ``rpc.call`` root span, sends its
:class:`~repro.observability.tracing.TraceContext` in the request header
(the server continues the trace instead of sampling locally), and
records the finished span — split into wire vs server time using the
response's ``server_ms`` — into the client's own small
:class:`~repro.observability.tracestore.TraceStore` (``client.traces``).
Even untraced, every response's ``server_ms`` feeds the running
:meth:`~_CallMixin.stats` wire/server split.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import socket
import threading
import time

from ..errors import RpcError, RpcUnavailable
from ..observability.tracestore import TraceStore
from ..observability.tracing import Span, TraceContext, Tracer
from ..replication.transport import (
    TcpTransport,
    TransportClosed,
    answer_auth_challenge,
)
from .wire import (
    RpcRequest,
    answer_auth_challenge_async,
    decode_response,
    encode_message,
    frame_message,
    raise_fault,
    read_frame,
)

__all__ = ["AsyncRpcClient", "RpcClient"]

_client_counter = itertools.count()


def _default_client_id() -> str:
    """A per-process-unique admission identity for anonymous clients."""
    return f"client-{os.getpid()}-{next(_client_counter)}"


class _CallMixin:
    """The op surface shared by the blocking and asyncio clients.

    Subclasses provide ``_call(op, args, deadline)``; every public method
    is a thin, documented wrapper assembling the ``args`` payload.  The
    blocking client's ``_call`` is synchronous and the async client's is
    a coroutine — callers of the mixin methods inherit that coloring.
    """

    def _call(self, op: str, args: dict, deadline: float | None):
        raise NotImplementedError  # pragma: no cover - subclasses override

    # -- client-side tracing + wire/server timing ----------------------
    def _init_tracing(self, trace_sample_rate: float) -> None:
        """Set up the sampler, the client-local trace store and stats."""
        self._tracer = Tracer(trace_sample_rate)
        #: completed client-side ``rpc.call`` traces (small local ring)
        self.traces = TraceStore(capacity=32)
        self._stats_lock = threading.Lock()
        self._stats = {
            "requests": 0,
            "faults": 0,
            "rtt_ms_total": 0.0,
            "server_ms_total": 0.0,
            "timed": 0,  # responses that carried server_ms
        }

    def _begin_call(self, op: str):
        """Sampling decision for one call: ``(context, span, started)``."""
        ctx: TraceContext | None = None
        span: Span | None = None
        if self._tracer.should_sample():
            ctx = TraceContext.root()
            span = Span(
                "rpc.call",
                op=op,
                client_id=self.client_id,
                trace_id=ctx.trace_id,
            )
        return ctx, span, time.perf_counter()

    def _finish_call(
        self,
        ctx: TraceContext | None,
        span: Span | None,
        started: float,
        server_ms: float | None,
        fault_code: str | None = None,
    ) -> None:
        """Account one completed exchange; record the span when traced."""
        rtt_ms = (time.perf_counter() - started) * 1000.0
        with self._stats_lock:
            self._stats["requests"] += 1
            self._stats["rtt_ms_total"] += rtt_ms
            if fault_code is not None:
                self._stats["faults"] += 1
            if server_ms is not None:
                self._stats["server_ms_total"] += server_ms
                self._stats["timed"] += 1
        if span is None or ctx is None:
            return
        if server_ms is not None:
            span.annotate(
                server_ms=server_ms,
                wire_ms=round(max(rtt_ms - server_ms, 0.0), 3),
            )
        if fault_code is not None:
            span.annotate(fault=fault_code)
        span.finish()
        self.traces.record(ctx, span, kind="client", node=self.client_id)

    def _complete_call(
        self,
        request: RpcRequest,
        payload: bytes,
        span: Span | None,
        started: float,
    ):
        """Everything after a response payload arrived, for both clients:
        decode it (either frame shape), check it answers *request*,
        account the exchange, and return its value or raise its fault."""
        response = decode_response(payload)
        if response.request_id != request.request_id:
            raise RpcError(
                f"response id {response.request_id} does not match "
                f"request id {request.request_id}"
            )
        fault = response.fault
        self._finish_call(
            request.trace,
            span,
            started,
            response.server_ms,
            fault_code=fault.code if fault is not None else None,
        )
        if fault is not None:
            raise_fault(fault)
        return response.value

    def stats(self) -> dict:
        """Running request counters with the wire-vs-server time split.

        ``server_ms_avg`` / ``wire_ms_avg`` are computed over the
        responses that carried ``server_ms`` (``timed``); ``wire`` is the
        round trip minus the server's dispatch time — framing, kernel,
        network and client-side scheduling.
        """
        with self._stats_lock:
            snapshot = dict(self._stats)
        timed = snapshot["timed"]
        snapshot["rtt_ms_avg"] = (
            round(snapshot["rtt_ms_total"] / snapshot["requests"], 3)
            if snapshot["requests"]
            else None
        )
        snapshot["server_ms_avg"] = (
            round(snapshot["server_ms_total"] / timed, 3) if timed else None
        )
        if timed and snapshot["requests"]:
            wire = snapshot["rtt_ms_avg"] - snapshot["server_ms_avg"]
            snapshot["wire_ms_avg"] = round(max(wire, 0.0), 3)
        else:
            snapshot["wire_ms_avg"] = None
        return snapshot

    def ping(self):
        """Liveness probe; returns the server's identity dict."""
        return self._call("ping", {}, None)

    def info(self):
        """The server's name, node kind, document count and shard count."""
        return self._call("info", {}, None)

    def query(
        self,
        query: str,
        *,
        threshold_override: float | None = None,
        keep_all_scores: bool = False,
        read_your_writes=None,
        prefer_primary: bool = False,
        deadline: float | None = None,
    ):
        """Evaluate one KOKO query on the server; returns a ``KokoResult``.

        ``read_your_writes`` takes a ``WalPosition`` token from a prior
        write; a non-router server that has not caught up answers with a
        ``stale_read`` fault, a router routes around stale replicas.
        ``deadline`` is a relative seconds budget enforced server-side.
        """
        return self._call(
            "query",
            {
                "query": query,
                "threshold_override": threshold_override,
                "keep_all_scores": keep_all_scores,
                "read_your_writes": read_your_writes,
                "prefer_primary": prefer_primary,
            },
            deadline,
        )

    def query_batch(
        self,
        queries,
        *,
        threshold_override: float | None = None,
        keep_all_scores: bool = False,
        read_your_writes=None,
        prefer_primary: bool = False,
        deadline: float | None = None,
    ):
        """Evaluate *queries* in order under one shared deadline."""
        return self._call(
            "query_batch",
            {
                "queries": list(queries),
                "threshold_override": threshold_override,
                "keep_all_scores": keep_all_scores,
                "read_your_writes": read_your_writes,
                "prefer_primary": prefer_primary,
            },
            deadline,
        )

    def add_document(
        self,
        text: str,
        *,
        doc_id: str | None = None,
        wait_durable: bool = True,
        deadline: float | None = None,
    ):
        """Ingest one document; returns an ack dict.

        With ``wait_durable=False`` the server acks after the in-memory
        splice, before the WAL fsync (``durable: False`` in the ack);
        :meth:`flush` is the durability barrier.  The ack's ``token`` is
        a read-your-writes ``WalPosition``.
        """
        return self._call(
            "add_document",
            {"text": text, "doc_id": doc_id, "wait_durable": wait_durable},
            deadline,
        )

    def add_documents(
        self,
        texts,
        *,
        doc_ids=None,
        batch_size: int | None = None,
        wait_durable: bool = True,
        deadline: float | None = None,
    ):
        """Bulk-ingest *texts* in one round trip; returns an ack dict.

        Server-side this maps to ``KokoService.add_documents`` — one
        claim/commit round and roughly one group-committed fsync per
        ``batch_size`` documents instead of one of each per document.
        """
        return self._call(
            "add_documents",
            {
                "texts": list(texts),
                "doc_ids": list(doc_ids) if doc_ids is not None else None,
                "batch_size": batch_size,
                "wait_durable": wait_durable,
            },
            deadline,
        )

    def remove_document(self, doc_id: str, *, deadline: float | None = None):
        """Remove one document through the server's write path."""
        return self._call("remove_document", {"doc_id": doc_id}, deadline)

    def flush(self):
        """Durability barrier: fsync the server's WAL; returns the
        durable ``WalPosition`` token."""
        return self._call("flush", {}, None)


class RpcClient(_CallMixin):
    """Blocking RPC client over a :class:`TcpTransport` connection.

    Thread-safe: a lock serialises request/response exchanges, so one
    client may be shared across threads (each call holds the connection
    for its full round trip).  A call that gets no response within
    ``timeout`` seconds raises :class:`~repro.errors.RpcUnavailable` and
    closes the connection — the late response must never be read as the
    next call's answer — so later calls fail fast; connect again.

    ``trace_sample_rate`` samples calls into client-side ``rpc.call``
    root spans whose :class:`TraceContext` the server continues; the
    finished traces land in ``client.traces`` and :meth:`stats` keeps
    the wire-vs-server time split for every call, traced or not.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        auth_token: bytes | str | None = None,
        client_id: str | None = None,
        timeout: float = 30.0,
        default_deadline: float | None = None,
        trace_sample_rate: float = 0.0,
    ) -> None:
        self.client_id = client_id if client_id is not None else _default_client_id()
        self.default_deadline = default_deadline
        self.timeout = timeout
        self._init_tracing(trace_sample_rate)
        sock = socket.create_connection((host, port), timeout=timeout)
        try:
            if auth_token is not None:
                answer_auth_challenge(sock, auth_token)
        except Exception:
            sock.close()
            raise
        self._transport = TcpTransport(sock)
        self._lock = threading.Lock()
        self._request_ids = itertools.count(1)

    def _call(self, op: str, args: dict, deadline: float | None):
        """One request/response exchange; faults re-raise typed."""
        if deadline is None:
            deadline = self.default_deadline
        ctx, span, started = self._begin_call(op)
        request = RpcRequest(
            op=op,
            args=args,
            request_id=next(self._request_ids),
            client_id=self.client_id,
            deadline=deadline,
            trace=ctx,
        )
        with self._lock:
            try:
                self._transport.send(request)
                payload = self._transport.recv_payload(timeout=self.timeout)
            except TransportClosed as exc:
                raise RpcUnavailable(f"server connection lost: {exc}") from exc
            except OSError as exc:
                raise RpcUnavailable(f"server connection failed: {exc}") from exc
            if payload is None:
                # the late response would be read as the next call's answer:
                # a connection that timed out once is never used again
                self._transport.close()
                raise RpcUnavailable(
                    f"no response to {op!r} within the client timeout of "
                    f"{self.timeout:g}s; connection closed"
                )
        return self._complete_call(request, payload, span, started)

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._transport.close()

    def __enter__(self) -> "RpcClient":
        """Context-manager entry: returns the connected client."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()


class AsyncRpcClient(_CallMixin):
    """asyncio RPC client; every op method is a coroutine.

    Create with :meth:`connect`.  An asyncio lock serialises exchanges so
    one client can be shared across tasks.
    """

    def __init__(
        self,
        reader,
        writer,
        client_id: str | None = None,
        trace_sample_rate: float = 0.0,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.client_id = client_id if client_id is not None else _default_client_id()
        self.default_deadline: float | None = None
        self._lock = asyncio.Lock()
        self._request_ids = itertools.count(1)
        self._init_tracing(trace_sample_rate)

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        auth_token: bytes | str | None = None,
        client_id: str | None = None,
        timeout: float = 10.0,
        trace_sample_rate: float = 0.0,
    ) -> "AsyncRpcClient":
        """Open a connection (and run the handshake when *auth_token*)."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout
        )
        try:
            if auth_token is not None:
                await asyncio.wait_for(
                    answer_auth_challenge_async(reader, writer, auth_token),
                    timeout=timeout,
                )
        except Exception:
            writer.close()
            raise
        return cls(
            reader, writer, client_id=client_id, trace_sample_rate=trace_sample_rate
        )

    async def _call(self, op: str, args: dict, deadline: float | None):
        """One request/response exchange; faults re-raise typed."""
        if deadline is None:
            deadline = self.default_deadline
        ctx, span, started = self._begin_call(op)
        request = RpcRequest(
            op=op,
            args=args,
            request_id=next(self._request_ids),
            client_id=self.client_id,
            deadline=deadline,
            trace=ctx,
        )
        async with self._lock:
            try:
                self._writer.write(frame_message(encode_message(request)))
                await self._writer.drain()
                payload = await read_frame(self._reader)
            except (ConnectionError, OSError) as exc:
                raise RpcUnavailable(f"server connection failed: {exc}") from exc
        if payload is None:
            raise RpcUnavailable("server closed the connection")
        return self._complete_call(request, payload, span, started)

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:  # pragma: no cover - peer already gone
            pass

    async def __aenter__(self) -> "AsyncRpcClient":
        """Async context-manager entry: returns the connected client."""
        return self

    async def __aexit__(self, *exc_info) -> None:
        """Async context-manager exit: :meth:`close`."""
        await self.close()
