"""The asyncio RPC server: one node's network front door.

``RpcServer`` serves queries and ingest over TCP for any node kind —
a primary :class:`~repro.service.service.KokoService`, a read-only
:class:`~repro.replication.replica.ReplicaService` follower (closing the
"replica query RPC" item: replicas answer the same ``query`` op,
tuple-identically), or a :class:`~repro.replication.router.ReplicaSet`
(reads fan across replicas with read-your-writes tokens, writes go to the
primary).  Frames and the mutual HMAC handshake are :mod:`repro.net`'s,
shared with replication; what goes inside a frame is :mod:`repro.rpc.wire`.

A request takes one of **two paths**.  A ``query`` that a primary's or a
replica's result cache can answer is answered **on the event loop**, where
it arrived (:meth:`RpcServer._cached_entry` →
:meth:`~repro.service.service.KokoService.cached_result`: a cache probe
that takes no lock a writer or an fsync can hold), and its response reuses
the answer's wire bytes, kept in the cache entry since its first sending.
Everything else — misses, writes, routers, token-carrying and
trace-sampled requests — runs its blocking handler on an executor thread.

Production admission machinery lives at this boundary:

* **per-client token buckets** (:mod:`repro.rpc.admission`) reject a
  client that exceeds its query/ingest rate with a typed
  ``rate_limited`` fault while other clients proceed;
* **server-side deadlines** — a request's relative budget is anchored to
  the server's monotonic clock at receipt; an already-expired deadline is
  rejected before any work runs, and an in-flight query is cooperatively
  cancelled through ``KokoService.query(deadline=...)`` (queued shards of
  a timed-out query never start);
* **bulk ingest** maps to :meth:`KokoService.add_documents` (one
  claim/commit round and ~one fsync per batch);
* **pipelined acks** — ``add_document(wait_durable=False)`` acks after
  the splice, before the fsync; the ``flush`` op is the commit barrier;
* **trace continuation** — a request carrying a
  :class:`~repro.observability.tracing.TraceContext` header continues
  the *caller's* trace (the caller's sampling decision wins — the
  server never samples RPC work locally): a sampled request gets an
  ``rpc.server`` fragment with admission-wait, executor queue-wait and
  deadline-slack spans, recorded into the node's ``TraceStore``, and
  the context is threaded into the service call so the query/ingest
  span tree (and, for ingest, the WAL record → shipper → replica
  chain) joins the same trace.  Every response carries ``server_ms``
  so even untraced clients can split wire time from server time.

The lifecycle is :class:`~repro.net.LoopServer`'s: an asyncio loop on a
daemon thread, ``start()`` returning the bound address, idempotent
``close()`` that cancels the open connections.  Faulty connections
(garbage frames, oversized headers, handshake failures, slow-loris
idling) are dropped — counted in the node's metrics registry under
``koko_rpc_transport_errors_total`` — without disturbing
the other connections.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from ..errors import (
    RpcBadRequest,
    RpcDeadlineExceeded,
    RpcReadOnly,
    RpcStaleRead,
)
from ..net import (
    MAX_FRAME_BYTES,
    FrameError,
    FrameTooLarge,
    IdleTimer,
    LoopServer,
    check_listen,
    handshake_async,
    read_frame,
    write_frame,
)
from ..observability.exposition import _node_kind
from ..observability.tracing import Span, TraceContext
from ..service.cache import CacheEntry
from ..service.service import IngestAck
from .admission import AdmissionController, AdmissionPolicy
from .wire import (
    RpcRequest,
    RpcResponse,
    decode_message,
    encode_body,
    encode_message,
    fault_for,
)

__all__ = ["RpcServer"]

#: ops that mutate state — rejected on replicas, ingest-bucket admitted
_WRITE_OPS = frozenset({"add_document", "add_documents", "remove_document", "flush"})

#: ops exempt from admission control (health plumbing, not user work)
_UNMETERED_OPS = frozenset({"ping", "info"})


class RpcServer(LoopServer):
    """Serve the query/ingest RPC protocol for one node.

    Parameters
    ----------
    node:
        A ``KokoService``, ``ReplicaService`` or ``ReplicaSet``; the kind
        is duck-typed and decides write admission and token checking.
    host / port:
        Bind address; port 0 picks a free port (returned by
        :meth:`start`).  A non-loopback *host* requires ``auth_token``
        unless ``allow_unauthenticated=True``
        (:func:`~repro.net.check_listen`; the trust model is
        :mod:`repro.net`'s).
    auth_token:
        Shared secret for the mutual HMAC handshake; clients must present
        it before any frame is exchanged.
    admission:
        An :class:`AdmissionPolicy` (or prepared
        :class:`AdmissionController`); ``None`` admits everything.
    max_frame_bytes / idle_timeout / handshake_timeout:
        Transport hardening: frames over the bound, connections idle past
        the timeout, and handshakes that stall are dropped (and counted).
    default_deadline:
        Budget in seconds applied to requests that carry none
        (``None`` = no server-imposed deadline).
    max_workers:
        Executor threads running the blocking node calls: query misses
        and writes (cached answers never occupy one).
    name:
        Label for thread names and ``ping``/``info`` responses.
    """

    def __init__(
        self,
        node,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        auth_token: bytes | str | None = None,
        allow_unauthenticated: bool = False,
        admission: AdmissionPolicy | AdmissionController | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        idle_timeout: float = 300.0,
        handshake_timeout: float = 5.0,
        default_deadline: float | None = None,
        max_workers: int = 8,
        name: str | None = None,
    ) -> None:
        check_listen(
            host, auth_token, allow_unauthenticated, "serve unauthenticated RPC"
        )
        self.node = node
        self.name = name if name is not None else getattr(node, "name", "rpc")
        super().__init__(host, port, f"rpc-server-{self.name}")
        self.auth_token = auth_token
        self.max_frame_bytes = max_frame_bytes
        self.idle_timeout = idle_timeout
        self.handshake_timeout = handshake_timeout
        self.default_deadline = default_deadline
        self._kind = _node_kind(node)
        if isinstance(admission, AdmissionPolicy):
            admission = AdmissionController(admission)
        self._admission = admission
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=f"rpc-{self.name}"
        )
        registry = node.metrics
        self._requests = registry.counter(
            "koko_rpc_requests_total", "RPC requests received", ("op",)
        )
        self._faults = registry.counter(
            "koko_rpc_faults_total", "RPC requests answered with a fault", ("code",)
        )
        self._transport_errors = registry.counter(
            "koko_rpc_transport_errors_total",
            "RPC connections dropped by fault kind",
            ("kind",),
        )
        self._connections = registry.gauge(
            "koko_rpc_open_connections", "Currently open RPC connections"
        )
        self._latency = registry.histogram(
            "koko_rpc_request_seconds", "RPC request service time", ("op",)
        )
        self._inflight = registry.gauge(
            "koko_rpc_inflight_requests",
            "RPC requests currently being dispatched",
        )
        self._queue_wait = registry.histogram(
            "koko_rpc_executor_queue_wait_seconds",
            "Time a dispatched request waited for an executor thread",
        )
        self._handlers = {
            "query": self._op_query,
            "query_batch": self._op_query_batch,
            "add_document": self._op_add_document,
            "add_documents": self._op_add_documents,
            "remove_document": self._op_remove_document,
            "flush": self._op_flush,
            "info": self._op_info,
        }
        #: the two per-op metric children of every known op, resolved once
        #: (an unknown op name still goes through ``labels()``)
        self._op_metrics = {
            op: (self._requests.labels(op), self._latency.labels(op))
            for op in (*self._handlers, "ping")
        }

    def close(self) -> None:
        """Stop serving (idempotent); open connections are cancelled."""
        super().close()
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        """One accepted connection: handshake, then a request loop.

        Any transport-level fault (garbage, oversized frame, mid-frame
        disconnect, idle timeout, failed handshake) drops **this**
        connection only — the serve loop keeps accepting others.
        """
        self._connections.inc()
        peername = writer.get_extra_info("peername") or ("unknown", 0)
        peer = f"{peername[0]}:{peername[1]}"
        idle = (
            IdleTimer(reader, self.idle_timeout)
            if self.idle_timeout is not None
            else None
        )
        try:
            if self.auth_token is not None:
                try:
                    ok = await asyncio.wait_for(
                        handshake_async(reader, writer, self.auth_token, listener=True),
                        timeout=self.handshake_timeout,
                    )
                except Exception:
                    ok = False
                if not ok:
                    self._transport_errors.labels("auth_failure").inc()
                    return
            while True:
                try:
                    payload = await read_frame(reader, self.max_frame_bytes, idle)
                except (asyncio.TimeoutError, TimeoutError):
                    self._transport_errors.labels("idle_timeout").inc()
                    return
                except FrameTooLarge:
                    self._transport_errors.labels("oversized_frame").inc()
                    return
                except FrameError:
                    self._transport_errors.labels("bad_frame").inc()
                    return
                if payload is None:
                    return  # clean disconnect at a frame boundary
                received_at = time.monotonic()
                try:
                    message = decode_message(payload)
                except FrameError:
                    self._transport_errors.labels("garbage_frame").inc()
                    return
                if not isinstance(message, RpcRequest):
                    self._transport_errors.labels("garbage_frame").inc()
                    return
                response, entry = await self._dispatch(message, received_at, peer)
                if entry is None:
                    # a computed result is encoded into its typed body here
                    payload = encode_message(response)
                else:
                    # a cached answer: its body is encoded on first sending
                    # and kept in the cache entry, to die with it
                    if entry.encoded is None:
                        entry.encoded = encode_body(entry.value)
                    payload = encode_message(response, entry.encoded)
                await write_frame(writer, payload)
        except (ConnectionError, OSError):
            self._transport_errors.labels("disconnect").inc()
        finally:
            if idle is not None:
                idle.cancel()
            self._connections.dec()
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover - peer already gone
                pass

    async def _dispatch(
        self, request: RpcRequest, received_at: float, peer: str
    ) -> tuple[RpcResponse, CacheEntry | None]:
        """Admission → deadline → cached answer or execute; every failure
        becomes a fault.

        Returns the response and, when the value came out of the node's
        result cache right here on the loop (:meth:`_cached_entry`), the
        cache entry whose ``encoded`` slot holds — or will hold — the
        value's wire bytes.

        A request whose ``trace`` header is sampled gets an ``rpc.server``
        fragment continuing the caller's trace — admission wait, executor
        queue wait and the handler's deadline slack become spans — and the
        derived context is threaded into the node call so the service's
        own span tree joins the trace.  Every response (success or fault)
        carries ``server_ms``.
        """
        op_metrics = self._op_metrics.get(request.op)
        if op_metrics is None:
            op_metrics = (
                self._requests.labels(request.op),
                self._latency.labels(request.op),
            )
        requests, latency = op_metrics
        requests.inc()
        self._inflight.inc()
        entry: CacheEntry | None = None
        started = time.perf_counter()
        ctx = request.trace if isinstance(request.trace, TraceContext) else None
        span: Span | None = None
        frag: TraceContext | None = None
        if ctx is not None and ctx.sampled and request.op != "ping":
            frag = ctx.child()
            span = Span(
                "rpc.server",
                op=request.op,
                node=self.name,
                trace_id=ctx.trace_id,
                client_id=request.client_id or peer,
            )
        try:
            if request.op == "ping":
                value: object = {"ok": True, "kind": self._kind, "name": self.name}
            else:
                if self._admission is not None and request.op not in _UNMETERED_OPS:
                    client = request.client_id or peer
                    kind = "ingest" if request.op in _WRITE_OPS else "query"
                    admit_started = time.perf_counter()
                    self._admission.admit(client, kind)
                    if span is not None:
                        span.record(
                            "admission_wait",
                            time.perf_counter() - admit_started,
                            kind=kind,
                        )
                budget = (
                    request.deadline
                    if request.deadline is not None
                    else self.default_deadline
                )
                deadline_at = None if budget is None else received_at + budget
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    raise RpcDeadlineExceeded(
                        f"deadline of {budget:g}s expired before "
                        f"{request.op!r} started"
                    )
                entry = self._cached_entry(request, span)
                if entry is not None:
                    value = entry.value
                else:
                    value = await self._execute(request, deadline_at, frag, span)
                if span is not None and deadline_at is not None:
                    span.annotate(
                        deadline_slack_ms=round(
                            (deadline_at - time.monotonic()) * 1000.0, 3
                        )
                    )
            fault = None
        except Exception as exc:
            value = None
            fault = fault_for(exc)
            self._faults.labels(fault.code).inc()
            if span is not None:
                span.annotate(fault=fault.code)
        finally:
            self._inflight.dec()
        elapsed = time.perf_counter() - started
        latency.observe(elapsed)
        if span is not None and frag is not None:
            span.finish()
            store = getattr(self._underlying_service(), "trace_store", None)
            if store is not None:
                store.record(
                    frag,
                    span,
                    parent_span_id=ctx.span_id,
                    kind="rpc",
                    node=self.name,
                )
        response = RpcResponse(
            request_id=request.request_id,
            value=value,
            fault=fault,
            server_ms=round(elapsed * 1000.0, 3),
        )
        return response, entry

    def _cached_entry(self, request: RpcRequest, span: Span | None) -> CacheEntry | None:
        """The loop-inline request path: a ``query`` the node's result cache
        can answer is answered here, with no executor hop.

        Only :meth:`KokoService.cached_result` runs on the loop — a cache
        probe that takes no lock a writer or an fsync can hold.  Everything
        else goes to the executor as before: a miss, a router node (it
        chooses a replica per request), a read-your-writes token (checking
        it may wait on the WAL lock) and a sampled trace (its span tree
        records the executor path).
        """
        if request.op != "query" or span is not None or self._kind == "router":
            return None
        args = request.args
        if args.get("read_your_writes") is not None:
            return None
        return self.node.cached_result(
            args.get("query"),
            args.get("threshold_override"),
            bool(args.get("keep_all_scores", False)),
            request.client_id,
        )

    async def _execute(
        self,
        request: RpcRequest,
        deadline_at: float | None,
        trace_ctx: TraceContext | None = None,
        span: Span | None = None,
    ):
        """Run one op's blocking handler on the executor, deadline-bounded.

        The deadline is enforced twice: cooperatively inside the service
        (queued shards never start once it passes) and as an
        ``asyncio.wait_for`` backstop here, so even an op with no
        cooperative checks cannot hold the response past its budget.
        The time between submission and the handler actually starting is
        the executor queue wait — observed into the queue-wait histogram
        and, when traced, recorded as a ``queue_wait`` span.
        """
        handler = self._handlers.get(request.op)
        if handler is None:
            raise RpcBadRequest(f"unknown op {request.op!r}")
        loop = asyncio.get_running_loop()
        submitted = time.perf_counter()
        args = dict(request.args)
        client_id = request.client_id

        def run():
            queue_wait = time.perf_counter() - submitted
            self._queue_wait.observe(queue_wait)
            if span is not None:
                span.record("queue_wait", queue_wait)
            return handler(args, deadline_at, trace_ctx, client_id)

        future = loop.run_in_executor(self._executor, run)
        if deadline_at is None:
            return await future
        remaining = deadline_at - time.monotonic()
        try:
            return await asyncio.wait_for(future, timeout=max(remaining, 0.001))
        except (asyncio.TimeoutError, TimeoutError):
            raise RpcDeadlineExceeded(
                f"deadline expired while {request.op!r} was executing"
            ) from None

    # ------------------------------------------------------------------
    # op handlers (run on the executor; blocking is fine here)
    # ------------------------------------------------------------------
    def _underlying_service(self):
        """The ``KokoService`` behind this node (itself, for a primary)."""
        if self._kind == "replica":
            return self.node.service
        if self._kind == "router":
            return self.node.primary
        return self.node

    def _require_writable(self) -> None:
        """Reject writes on read-only nodes with a typed fault."""
        if self._kind == "replica":
            raise RpcReadOnly(f"{self.name} is a read-only replica")

    def _check_token(self, token) -> None:
        """Enforce a read-your-writes token on a non-router node.

        A replica must have applied past the token
        (:meth:`ReplicaService.caught_up_to`); a primary compares its own
        durable position.  Routers skip this — their ``query`` already
        routes around stale replicas and falls back to the primary.
        """
        if token is None:
            return
        if self._kind == "replica":
            if not self.node.caught_up_to(token):
                raise RpcStaleRead(
                    f"{self.name} has not applied up to {token} yet"
                )
        else:
            position = self.node.wal_position()
            if position is not None and position < token:
                raise RpcStaleRead(
                    f"{self.name} durable position {position} is behind {token}"
                )

    def _query_kwargs(self, args: dict, deadline_at: float | None) -> dict:
        """The keyword arguments every query-shaped op forwards."""
        return {
            "threshold_override": args.get("threshold_override"),
            "keep_all_scores": bool(args.get("keep_all_scores", False)),
            "deadline": deadline_at,
        }

    def _op_query(
        self,
        args: dict,
        deadline_at: float | None,
        trace_ctx: TraceContext | None = None,
        client_id: str | None = None,
    ):
        """``query``: evaluate one query; returns the ``KokoResult``."""
        kwargs = self._query_kwargs(args, deadline_at)
        kwargs["trace_context"] = trace_ctx
        kwargs["client_id"] = client_id
        token = args.get("read_your_writes")
        if self._kind == "router":
            return self.node.query(
                args["query"],
                read_your_writes=token,
                prefer_primary=bool(args.get("prefer_primary", False)),
                **kwargs,
            )
        self._check_token(token)
        return self.node.query(args["query"], **kwargs)

    def _op_query_batch(
        self,
        args: dict,
        deadline_at: float | None,
        trace_ctx: TraceContext | None = None,
        client_id: str | None = None,
    ):
        """``query_batch``: evaluate queries in order, one shared deadline."""
        out = []
        for query in args["queries"]:
            out.append(
                self._op_query(
                    {**args, "query": query}, deadline_at, trace_ctx, client_id
                )
            )
        return out

    def _op_add_document(
        self,
        args: dict,
        deadline_at: float | None,
        trace_ctx: TraceContext | None = None,
        client_id: str | None = None,
    ):
        """``add_document``: single ingest, optionally with a pipelined ack."""
        self._require_writable()
        wait_durable = bool(args.get("wait_durable", True))
        ingest_kwargs = dict(
            doc_id=args.get("doc_id"),
            wait_durable=wait_durable,
            trace_context=trace_ctx,
            client_id=client_id,
        )
        if self._kind == "router":
            result, token = self.node.add_document(args["text"], **ingest_kwargs)
        else:
            result = self.node.add_document(args["text"], **ingest_kwargs)
            token = self.node.wal_position()
        if isinstance(result, IngestAck):
            document, durable = result.document, result.durable
        else:
            document, durable = result, True
        return {
            "doc_id": document.doc_id,
            "sentences": len(document),
            "tokens": document.num_tokens,
            "token": token,
            "durable": durable,
        }

    def _op_add_documents(
        self,
        args: dict,
        deadline_at: float | None,
        trace_ctx: TraceContext | None = None,
        client_id: str | None = None,
    ):
        """``add_documents``: bulk ingest, claim/commit amortised per batch."""
        self._require_writable()
        kwargs = {
            "doc_ids": args.get("doc_ids"),
            "wait_durable": bool(args.get("wait_durable", True)),
        }
        if args.get("batch_size") is not None:
            kwargs["batch_size"] = int(args["batch_size"])
        if self._kind == "router":
            documents, token = self.node.add_documents(args["texts"], **kwargs)
        else:
            documents = self.node.add_documents(args["texts"], **kwargs)
            token = self.node.wal_position()
        return {
            "doc_ids": [document.doc_id for document in documents],
            "count": len(documents),
            "token": token,
            "durable": kwargs["wait_durable"],
        }

    def _op_remove_document(
        self,
        args: dict,
        deadline_at: float | None,
        trace_ctx: TraceContext | None = None,
        client_id: str | None = None,
    ):
        """``remove_document``: staged removal through the write path."""
        self._require_writable()
        remove_kwargs = dict(trace_context=trace_ctx, client_id=client_id)
        if self._kind == "router":
            document, token = self.node.remove_document(
                args["doc_id"], **remove_kwargs
            )
        else:
            document = self.node.remove_document(args["doc_id"], **remove_kwargs)
            token = self.node.wal_position()
        return {"doc_id": document.doc_id, "token": token}

    def _op_flush(
        self,
        args: dict,
        deadline_at: float | None,
        trace_ctx: TraceContext | None = None,
        client_id: str | None = None,
    ):
        """``flush``: the durability barrier for pipelined/bulk ingest."""
        self._require_writable()
        token = self._underlying_service().wait_durable()
        return {"token": token}

    def _op_info(
        self,
        args: dict,
        deadline_at: float | None,
        trace_ctx: TraceContext | None = None,
        client_id: str | None = None,
    ):
        """``info``: identity and corpus shape, for clients and probes."""
        service = self._underlying_service()
        return {
            "name": self.name,
            "kind": self._kind,
            "documents": len(service),
            "shards": service.shard_count,
        }
