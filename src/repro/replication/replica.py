"""A read-only follower: snapshot restore + WAL tail application.

A :class:`ReplicaService` connects a transport to a primary's
:class:`~repro.replication.shipper.LogShipper`, restores the shipped
snapshot entirely in memory (zero re-annotation — the snapshot carries
the primary's annotated documents, and shipped WAL records carry
annotated documents too), then applies the streamed records through the
service's existing splice path.  Because routing, sid accounting and
generation stamps replay identically, a caught-up replica returns
**tuple-identical** query results to its primary — including cache
behaviour, since the generation vector mirrors the primary's.

The replica tracks its **replication lag**: the applied WAL position
versus the primary's durable end (positions arrive with every record
batch and heartbeat; the primary also sends its byte-distance
computation, which only it can make — it has the segment files).  The
:class:`~repro.replication.router.ReplicaSet` router uses those to
enforce staleness bounds.

Writes are rejected: :meth:`add_document` / :meth:`remove_document`
raise :class:`~repro.errors.ReplicationError`.  All reads —
:meth:`query`, :meth:`query_batch`, statistics — delegate to the inner
service and run under its usual per-shard read locks, concurrent with
the applier thread's splices.
"""

from __future__ import annotations

import threading
import time

from ..errors import ReplicationError, ServiceError
from ..net import TransportClosed
from ..observability.tracing import Span, TraceContext, new_span_id
from ..persistence import WalPosition, WalRecord, state_from_payloads
from ..service import KokoService

__all__ = ["ReplicaService"]


class ReplicaService:
    """A follower serving read-only queries from shipped primary state.

    Parameters
    ----------
    transport:
        The follower end of a transport connected to a primary's
        :class:`~repro.replication.shipper.LogShipper` (e.g.
        :func:`~repro.net.connect_tcp`, or the replica
        end of :meth:`InProcessTransport.pair` handed to
        ``shipper.serve``).
    ack_every_records:
        How many applied records may accumulate before an ack is sent
        (an ack is also sent whenever the stream goes idle).
    name:
        Label for diagnostics.
    **service_kwargs:
        Forwarded to the inner :class:`~repro.service.KokoService`
        (cache sizes, engine options...).  Must match
        the primary's engine configuration for identical results; the
        defaults do.

    A replica whose transport broke (primary restart, network blip) can
    :meth:`reconnect` with a fresh transport: the primary resumes the
    stream from the replica's applied position when it still can, and
    falls back to shipping a fresh snapshot — transparently rebuilding
    the replica's state — when it cannot (position lost to a primary
    crash, or segments pruned past a stalled follower).
    """

    def __init__(
        self,
        transport,
        ack_every_records: int = 64,
        name: str = "replica",
        **service_kwargs,
    ) -> None:
        self._transport = transport
        self.name = name
        self._ack_every_records = ack_every_records
        self._service_kwargs = dict(service_kwargs)
        self._lock = threading.Lock()
        self._applied: WalPosition | None = None
        self._primary_end: WalPosition | None = None
        self._lag_bytes: int | None = None
        self._clock_offset: float | None = None
        self._records_applied = 0
        self._connected = False
        self._restart_requested = False
        self._error: str | None = None
        self._closed = False
        self._bootstrap_checkpoint_id: int | None = None
        self._bootstrap_seconds = 0.0

        bootstrap_started = time.perf_counter()
        try:
            mode, start, state = self._handshake(transport, resume=None)
            if mode != "snapshot" or state is None:
                raise ReplicationError(
                    f"{name}: primary answered a fresh subscription with "
                    f"{mode!r} instead of a snapshot bootstrap"
                )
            self.service = KokoService(bootstrap_snapshot=state, **service_kwargs)
        except BaseException:
            # a half-constructed replica has no close(): shut the channel
            # here so the primary's session ends instead of leaking
            try:
                transport.close()
            except Exception:  # pragma: no cover - best-effort
                pass
            raise
        self._bootstrap_checkpoint_id = state.checkpoint_id
        self._bootstrap_seconds = time.perf_counter() - bootstrap_started
        self._register_metrics()
        with self._lock:
            self._applied = start
            self._connected = True
        self._applier = threading.Thread(
            target=self._apply_loop,
            args=(transport,),
            name=f"koko-{name}-applier",
            daemon=True,
        )
        self._applier.start()

    def _register_metrics(self) -> None:
        """Expose replication state in the inner service's registry.

        Called after every inner-service (re)build, so the gauges always
        live in the registry ``self.service.metrics`` currently returns.
        Lag and connectivity are callback gauges — they read the live
        properties at scrape time rather than being pushed.
        """
        registry = self.service.metrics
        connected = registry.gauge(
            "koko_replication_connected",
            "1 while the applier is attached to a live shipping session.",
        )
        connected.set_function(lambda: 1.0 if self.connected else 0.0)
        lag = registry.gauge(
            "koko_replication_lag_bytes",
            "Byte distance behind the primary's durable end (-1 = unknown).",
        )
        lag.set_function(
            lambda: float(self.lag_bytes) if self.lag_bytes is not None else -1.0
        )
        applied = registry.gauge(
            "koko_replication_records_applied",
            "Shipped WAL records applied since this replica bootstrapped.",
        )
        applied.set_function(lambda: float(self.records_applied))
        bootstrap = registry.gauge(
            "koko_replication_bootstrap_seconds",
            "Wall-clock of the last snapshot bootstrap (handshake to ready).",
        )
        bootstrap.set(self._bootstrap_seconds)
        self._apply_hist = registry.histogram(
            "koko_replication_apply_seconds",
            "Per-record apply wall-clock (power-of-two buckets).",
        )

    def _handshake(self, transport, resume: WalPosition | None):
        """Subscribe and read the hello (+ snapshot, when bootstrapping)."""
        transport.send(("subscribe", {"resume": resume}))
        hello = transport.recv(timeout=60.0)
        if hello is None or hello[0] != "hello":
            raise ReplicationError(f"{self.name}: expected hello, got {hello!r}")
        mode = hello[1]["mode"]
        start: WalPosition = hello[1]["start"]
        state = None
        if mode == "snapshot":
            snapshot_msg = transport.recv(timeout=600.0)
            if snapshot_msg is None or snapshot_msg[0] != "snapshot":
                raise ReplicationError(
                    f"{self.name}: expected snapshot payload, got {snapshot_msg!r}"
                )
            state = state_from_payloads(
                snapshot_msg[1]["manifest"], snapshot_msg[1]["files"]
            )
        return mode, start, state

    def reconnect(self, transport) -> bool:
        """Re-attach a disconnected replica through a fresh transport.

        Offers the primary the replica's applied position; on a granted
        resume the existing in-memory state keeps serving and the stream
        continues where it left off (returns True).  Otherwise the primary
        ships a fresh snapshot and the replica **rebuilds** (returns
        False) — reads racing the swap are retried once against the
        replacement by :meth:`query`.  Raises :class:`ReplicationError`
        when called while still connected.
        """
        if self.connected:
            raise ReplicationError(f"{self.name} is still connected")
        if self._closed:
            raise ReplicationError(f"{self.name} is closed")
        if self._applier.is_alive():  # let the old applier finish dying
            self._applier.join(timeout=5.0)
        try:
            mode, start, state = self._handshake(
                transport, resume=self.applied_position
            )
            if mode not in ("resume", "snapshot") or (
                mode == "snapshot" and state is None
            ):
                raise ReplicationError(
                    f"{self.name}: unexpected reconnect handshake mode {mode!r}"
                )
            resumed = mode == "resume"
            replacement = (
                None
                if resumed
                else KokoService(bootstrap_snapshot=state, **self._service_kwargs)
            )
        except BaseException:
            # the replica keeps its old (disconnected) state; the caller
            # may retry, but this transport is dead either way — close it
            # so the primary's session ends instead of leaking
            try:
                transport.close()
            except Exception:  # pragma: no cover - best-effort
                pass
            raise
        if replacement is not None:
            previous, self.service = self.service, replacement
            self._bootstrap_checkpoint_id = state.checkpoint_id
            previous.close()
        # rebind the gauges/histogram: a rebuild swapped in a fresh inner
        # service (and registry); a resume makes this a no-op re-register
        self._register_metrics()
        old_transport, self._transport = self._transport, transport
        try:
            old_transport.close()
        except Exception:  # pragma: no cover - best-effort
            pass
        with self._lock:
            if not resumed:
                self._applied = start
            self._primary_end = None
            self._lag_bytes = None
            self._restart_requested = False
            self._error = None
            self._connected = True
        self._applier = threading.Thread(
            target=self._apply_loop,
            args=(transport,),
            name=f"koko-{self.name}-applier",
            daemon=True,
        )
        self._applier.start()
        return resumed

    # ------------------------------------------------------------------
    # the applier
    # ------------------------------------------------------------------
    def _apply_loop(self, transport) -> None:
        """Drain *transport* (this incarnation's own — a reconnect starts a
        fresh loop on a fresh transport) and apply shipped records."""
        unacked = 0
        try:
            while True:
                message = transport.recv(timeout=0.5)
                if message is None:
                    if unacked:
                        unacked = self._send_ack(transport)
                    continue
                kind = message[0]
                if kind == "records":
                    _, batch, primary_end = message
                    for position, payload in batch:
                        record = WalRecord.from_payload(payload)
                        apply_started = time.perf_counter()
                        self.service.apply_replicated(record)
                        apply_seconds = time.perf_counter() - apply_started
                        self._apply_hist.observe(apply_seconds)
                        trace = getattr(record, "trace", None)
                        if trace is not None and trace.sampled:
                            self._record_apply_trace(record, apply_seconds)
                        with self._lock:
                            self._applied = position
                            self._records_applied += 1
                        unacked += 1
                        if unacked >= self._ack_every_records:
                            unacked = self._send_ack(transport)
                    self._note_primary_end(primary_end)
                elif kind == "heartbeat":
                    info = message[1]
                    self._note_primary_end(
                        info.get("end"),
                        info.get("lag_bytes"),
                        info.get("sent_unix"),
                        info.get("position"),
                    )
                    # always ack: an idle-but-caught-up follower must keep
                    # refreshing its liveness (and its WAL retention pin)
                    unacked = self._send_ack(transport)
                elif kind == "restart":
                    with self._lock:
                        self._restart_requested = True
                        self._error = message[1].get("reason")
                    return
        except TransportClosed:
            pass
        except Exception as exc:
            with self._lock:
                self._error = repr(exc)
        finally:
            with self._lock:
                self._connected = False
            # a dead applier means a dead connection: closing the channel
            # ends the primary's session instead of letting it ship into
            # a queue nobody drains
            try:
                transport.close()
            except Exception:  # pragma: no cover - best-effort
                pass

    def _record_apply_trace(self, record: WalRecord, seconds: float) -> None:
        """Record a ``replica.apply`` fragment joining the ingest's trace.

        The shipped record's WAL metadata carries the originating
        :class:`~repro.observability.tracing.TraceContext`; the apply
        span parents under that metadata span, so cluster assembly shows
        client call → primary splice/fsync → ship → this apply as one
        tree spanning both nodes.
        """
        trace = record.trace
        store = getattr(self.service, "trace_store", None)
        if trace is None or store is None:
            return
        span = Span.completed(
            "replica.apply",
            seconds,
            op=record.op,
            doc_id=record.doc_id,
        )
        context = TraceContext(
            trace_id=trace.trace_id, span_id=new_span_id(), sampled=True
        )
        store.record(
            context,
            span,
            parent_span_id=trace.span_id,
            kind="apply",
            node=self.name,
        )

    def _send_ack(self, transport) -> int:
        applied = self.applied_position
        if applied is not None:
            transport.send(("ack", applied))
        return 0

    def _note_primary_end(
        self, end, lag_bytes=None, sent_unix=None, sent_up_to=None
    ) -> None:
        with self._lock:
            if sent_up_to is not None and (
                self._applied is None or sent_up_to > self._applied
            ):
                # a heartbeat's send cursor: the channel is ordered, so all
                # the primary sent before it is applied and the cursor is a
                # position we have reached (it moves past our last record
                # when a checkpoint rotates the log)
                self._applied = sent_up_to
            if end is not None and (
                self._primary_end is None or end > self._primary_end
            ):
                self._primary_end = end
            if lag_bytes is not None:
                self._lag_bytes = lag_bytes
            elif (
                self._applied is not None
                and self._primary_end is not None
                and self._applied >= self._primary_end
            ):
                self._lag_bytes = 0
            if sent_unix is not None:
                # estimated wall-clock skew versus the primary: our receive
                # time minus the primary's send time (includes one-way
                # network delay, good enough for trace alignment)
                self._clock_offset = time.time() - sent_unix

    # ------------------------------------------------------------------
    # replication state
    # ------------------------------------------------------------------
    @property
    def applied_position(self) -> WalPosition | None:
        """The log position of the last applied record."""
        with self._lock:
            return self._applied

    @property
    def primary_position(self) -> WalPosition | None:
        """The primary's durable end, as last reported to this replica."""
        with self._lock:
            return self._primary_end

    @property
    def lag_bytes(self) -> int | None:
        """Byte distance behind the primary (0 = caught up; None = unknown).

        Exact 0 when the applied position has reached the last reported
        primary end; otherwise the primary-computed byte distance from the
        latest heartbeat.
        """
        with self._lock:
            if (
                self._applied is not None
                and self._primary_end is not None
                and self._applied >= self._primary_end
            ):
                return 0
            return self._lag_bytes

    @property
    def connected(self) -> bool:
        """True while the applier is attached to a live session."""
        with self._lock:
            return self._connected

    @property
    def restart_requested(self) -> bool:
        """True when the primary told this replica to re-bootstrap."""
        with self._lock:
            return self._restart_requested

    @property
    def records_applied(self) -> int:
        """Total shipped records applied since this replica bootstrapped."""
        with self._lock:
            return self._records_applied

    @property
    def clock_offset_seconds(self) -> float | None:
        """Estimated wall-clock skew versus the primary (replica − primary).

        Derived from the ``sent_unix`` stamp on shipping heartbeats;
        ``None`` until the first heartbeat lands.  ``ClusterTelemetry``
        subtracts this from the replica's fragment timestamps when
        assembling a cross-node trace.
        """
        with self._lock:
            return self._clock_offset

    def caught_up_to(self, token: WalPosition | None) -> bool:
        """True when every write at or before *token* has been applied."""
        if token is None:
            return True
        applied = self.applied_position
        return applied is not None and applied >= token

    def wait_caught_up(
        self, token: WalPosition | None = None, timeout: float = 30.0
    ) -> bool:
        """Poll until :meth:`caught_up_to` *token* (default: the primary end
        last reported) or *timeout*; returns the final caught-up verdict.

        False when the target is unknown — a replica that never learned
        the primary's end (disconnected before the first batch or
        heartbeat) must not report itself in sync.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            target = token if token is not None else self.primary_position
            if target is not None and self.caught_up_to(target):
                return True
            if not self.connected:
                break
            time.sleep(0.01)
        target = token if token is not None else self.primary_position
        return target is not None and self.caught_up_to(target)

    def replication_stats(self) -> dict:
        """Lag and apply counters, in the shape operators monitor."""
        lag = self.lag_bytes  # property: exact 0 when caught up
        with self._lock:
            return {
                "name": self.name,
                "connected": self._connected,
                "restart_requested": self._restart_requested,
                "applied_position": str(self._applied) if self._applied else None,
                "primary_position": (
                    str(self._primary_end) if self._primary_end else None
                ),
                "lag_bytes": lag,
                "records_applied": self._records_applied,
                "bootstrap_checkpoint_id": self._bootstrap_checkpoint_id,
                "clock_offset_seconds": self._clock_offset,
                "error": self._error,
            }

    # ------------------------------------------------------------------
    # the read-only service surface
    # ------------------------------------------------------------------
    def query(self, query, **kwargs):
        """Evaluate one query against the replica's current state.

        Identical semantics to :meth:`KokoService.query` — same caches,
        same per-shard read locks, tuple-identical results when caught up
        with the primary.  A read racing a :meth:`reconnect` rebuild (the
        old inner service closes as the replacement swaps in) is retried
        once against the replacement.
        """
        service = self.service
        try:
            return service.query(query, **kwargs)
        except ServiceError:
            if service is not self.service:  # lost the race with a rebuild
                return self.service.query(query, **kwargs)
            raise

    def cached_result(self, query, *args, **kwargs):
        """The inner service's non-blocking result-cache probe (see
        :meth:`KokoService.cached_result`); ``None`` during a rebuild."""
        return self.service.cached_result(query, *args, **kwargs)

    def query_batch(self, queries, **kwargs):
        """Concurrent batch evaluation (see :meth:`KokoService.query_batch`)."""
        service = self.service
        try:
            return service.query_batch(queries, **kwargs)
        except ServiceError:
            if service is not self.service:
                return self.service.query_batch(queries, **kwargs)
            raise

    def add_document(self, *args, **kwargs):
        """Replicas are read-only: raises :class:`ReplicationError`."""
        raise ReplicationError(f"{self.name} is a read-only replica")

    def add_documents(self, *args, **kwargs):
        """Replicas are read-only: raises :class:`ReplicationError`."""
        raise ReplicationError(f"{self.name} is a read-only replica")

    def remove_document(self, *args, **kwargs):
        """Replicas are read-only: raises :class:`ReplicationError`."""
        raise ReplicationError(f"{self.name} is a read-only replica")

    @property
    def metrics(self):
        """The inner service's registry — service metrics *and* the
        replication gauges registered by :meth:`_register_metrics`."""
        return self.service.metrics

    def statistics(self):
        """Merged :class:`~repro.indexing.koko_index.IndexStatistics`."""
        return self.service.statistics()

    def document_ids(self) -> list[str]:
        """Ids of every document currently applied on this replica."""
        return self.service.document_ids()

    @property
    def generations(self) -> tuple[int, ...]:
        """Per-shard generation stamps (mirror the primary's when caught up)."""
        return self.service.generations

    @property
    def shard_count(self) -> int:
        """Number of shards (always the primary's topology)."""
        return self.service.shard_count

    def __len__(self) -> int:
        return len(self.service)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (telemetry liveness probe)."""
        return self._closed

    def close(self) -> None:
        """Detach from the primary and shut the inner service down."""
        if self._closed:
            return
        self._closed = True
        try:
            self._transport.close()
        except Exception:  # pragma: no cover - best-effort
            pass
        if self._applier.is_alive():
            self._applier.join(timeout=5.0)
        self.service.close()

    def __enter__(self) -> "ReplicaService":
        """Context-manager entry: the replica itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ReplicaService(name={self.name!r}, documents={len(self)}, "
            f"applied={self.applied_position}, connected={self.connected})"
        )
