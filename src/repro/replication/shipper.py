"""Primary-side log shipping: snapshot bootstrap + WAL tail streaming.

A :class:`LogShipper` attaches to a durable :class:`~repro.service.KokoService`
and serves any number of follower sessions, each over its own transport:

1. **Bootstrap** — the follower subscribes; the session ships the latest
   valid snapshot's raw bytes (manifest + per-shard corpus/index files,
   digests intact), or — when the follower asks to *resume* from a log
   position the primary can still serve — skips the snapshot entirely.
2. **Tail** — the session follows the write-ahead log with a
   :class:`~repro.persistence.WalCursor`, shipping each record's frame
   payload verbatim together with its log position, across segment
   rotations.
3. **Flow control** — the follower acks applied positions; the session
   tracks the ack, computes the follower's byte lag from the on-disk
   segment sizes, and heartbeats the primary's durable end position so
   the follower can measure its own staleness.

**Checkpoint coordination.**  Each live session pins the WAL segments it
still needs (its ack position, falling back to its read position) via
``KokoService.register_wal_pin``; checkpoint pruning keeps everything at
or above the lowest pin, so a follower mid-tail never loses records a
rotation folded away.  A session that stops acking for
``stall_timeout`` seconds drops its pin (so one dead follower cannot
make the log grow without bound) and is marked *stalled*; if it revives
after its segments were pruned, the cursor raises and the session tells
the follower to reconnect — which re-bootstraps from a fresh snapshot.
"""

from __future__ import annotations

import socket
import threading
import time

from ..errors import PersistenceError, ReplicationError
from ..net import TcpTransport, TransportClosed, check_listen, handshake
from ..observability.metrics import MetricsRegistry
from ..observability.tracing import Span, TraceContext, new_span_id
from ..persistence import WalCursor, WalPosition, read_snapshot_payloads
from ..persistence.wal import WalRecord
from ..persistence.snapshot import find_latest_valid

__all__ = ["LogShipper", "ShipperSession"]


class ShipperSession:
    """One follower's shipping session (a daemon thread on the primary)."""

    def __init__(self, shipper: "LogShipper", transport, session_id: int) -> None:
        self._shipper = shipper
        self._transport = transport
        self.session_id = session_id
        self.peer = getattr(transport, "name", f"session-{session_id}")
        self._lock = threading.Lock()
        self._position: WalPosition | None = None  # next-read point
        self._acked: WalPosition | None = None
        self._started_monotonic = time.monotonic()
        self._last_ack_monotonic = self._started_monotonic
        self._acked_once = False  # True once the follower's first ack lands
        self.records_shipped = 0
        self.bytes_shipped = 0
        self.snapshot_bytes = 0
        self.snapshot_checkpoint_id: int | None = None
        self.resumed = False
        self.error: str | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"koko-shipper-{session_id}", daemon=True
        )

    # -- observability --------------------------------------------------
    @property
    def position(self) -> WalPosition | None:
        """The session's read position (next record to ship)."""
        with self._lock:
            return self._position

    @property
    def acked(self) -> WalPosition | None:
        """The latest position the follower acknowledged as applied."""
        with self._lock:
            return self._acked

    @property
    def last_ack_age_seconds(self) -> float:
        """Seconds since the follower last acked (or since session start)."""
        with self._lock:
            return time.monotonic() - self._last_ack_monotonic

    @property
    def stalled(self) -> bool:
        """True when the follower has not acked within ``stall_timeout``.

        Until the follower's **first ack** lands, the session is exempt up
        to ``bootstrap_timeout`` instead: a fresh follower first receives
        the snapshot, then deserialises it and builds its service before
        its applier can ack anything — legitimately longer than
        ``stall_timeout``, and dropping the WAL retention pin during that
        window would let a checkpoint prune exactly the segments the
        follower is about to need.
        """
        with self._lock:
            if not self._acked_once:
                elapsed = time.monotonic() - self._started_monotonic
                return elapsed > self._shipper.bootstrap_timeout
        return self.last_ack_age_seconds > self._shipper.stall_timeout

    @property
    def alive(self) -> bool:
        """True while the session thread is running."""
        return self._thread.is_alive()

    def lag_bytes(self) -> int | None:
        """The follower's byte distance behind the primary's durable end.

        Computed from on-disk segment sizes between the acked position and
        the current durable position; ``None`` when unknown (never acked,
        or the spanned segments are gone — a stalled follower whose pin
        was dropped).
        """
        acked = self.acked
        end = self._shipper.service.wal_position()
        if acked is None or end is None:
            return None
        return self._shipper._bytes_between(acked, end)

    def pin(self) -> int | None:
        """The lowest WAL segment this session still needs retained."""
        if self.stalled or not self.alive:
            return None  # a dead follower must not pin the log forever
        with self._lock:
            anchor = self._acked or self._position
        return anchor.segment_id if anchor is not None else None

    def stats(self) -> dict:
        """A point-in-time description of this session (for operators)."""
        acked = self.acked
        position = self.position
        return {
            "peer": self.peer,
            "alive": self.alive,
            "stalled": self.stalled,
            "resumed": self.resumed,
            "position": str(position) if position else None,
            "acked": str(acked) if acked else None,
            "lag_bytes": self.lag_bytes(),
            "last_ack_age_seconds": self.last_ack_age_seconds,
            "records_shipped": self.records_shipped,
            "bytes_shipped": self.bytes_shipped,
            "snapshot_bytes": self.snapshot_bytes,
            "snapshot_checkpoint_id": self.snapshot_checkpoint_id,
            "error": self.error,
        }

    # -- session body ---------------------------------------------------
    def start(self) -> None:
        """Begin serving the follower."""
        self._thread.start()

    def _run(self) -> None:
        try:
            self._serve()
        except TransportClosed:
            pass  # normal end of session
        except Exception as exc:  # pragma: no cover - transport races
            self.error = repr(exc)
        finally:
            try:
                self._transport.close()
            except Exception:  # pragma: no cover - best-effort
                pass
            self._shipper._session_ended(self)

    def _serve(self) -> None:
        shipper = self._shipper
        subscribe = self._transport.recv(timeout=shipper.subscribe_timeout)
        if subscribe is None or subscribe[0] != "subscribe":
            raise ReplicationError(
                f"session {self.session_id}: expected a subscribe message, "
                f"got {subscribe!r}"
            )
        resume = subscribe[1].get("resume")
        start = self._try_resume(resume)
        if start is None:
            start = self._bootstrap()
        with self._lock:
            self._position = start
            self._last_ack_monotonic = time.monotonic()
        cursor = WalCursor(shipper.layout, start)
        last_heartbeat = 0.0
        while not self._stop.is_set():
            try:
                batch = cursor.poll(
                    max_records=shipper.batch_max_records,
                    max_bytes=shipper.batch_max_bytes,
                    # never ship past the durable end: a follower must not
                    # apply a record a primary crash could still discard
                    up_to=shipper.service.wal_position(),
                )
            except PersistenceError as exc:
                # segments pruned under a (previously stalled) cursor, or a
                # corrupt sealed segment: the follower must re-bootstrap
                self.error = repr(exc)
                self._transport.send(("restart", {"reason": repr(exc)}))
                return
            if batch:
                end = shipper.service.wal_position()
                send_started = time.perf_counter()
                self._transport.send(("records", batch, end))
                send_seconds = time.perf_counter() - send_started
                with self._lock:
                    self._position = batch[-1][0]
                batch_bytes = sum(len(p) for _, p in batch)
                self.records_shipped += len(batch)
                self.bytes_shipped += batch_bytes
                shipper._records_metric.inc(len(batch))
                shipper._bytes_metric.inc(batch_bytes)
                if getattr(shipper.service, "wal_traces_logged", 0) > 0:
                    self._record_ship_traces(batch, batch_bytes, send_seconds)
                self._drain_acks(block=False)
            else:
                # caught up: the recv timeout doubles as the poll interval
                self._drain_acks(block=True)
            now = time.monotonic()
            if now - last_heartbeat >= shipper.heartbeat_interval:
                last_heartbeat = now
                lag = self.lag_bytes()
                shipper._lag_gauge.labels(self.peer).set(
                    float(lag) if lag is not None else -1.0
                )
                self._transport.send(
                    (
                        "heartbeat",
                        {
                            "end": shipper.service.wal_position(),
                            # every record before the cursor has been sent
                            # on this (ordered) transport, so the follower
                            # may raise its applied position to it — across
                            # a rotation that is the new segment's start
                            "position": cursor.position,
                            "acked": self.acked,
                            "lag_bytes": lag,
                            # wall-clock send time: the follower derives its
                            # clock offset from this, which ClusterTelemetry
                            # uses to align trace fragments across nodes
                            "sent_unix": time.time(),
                        },
                    )
                )

    def _record_ship_traces(
        self, batch: list, batch_bytes: int, send_seconds: float
    ) -> None:
        """Record a ``wal.ship`` trace fragment per traced record shipped.

        Only called once the primary has ever logged a traced WAL record
        (``service.wal_traces_logged``), so untraced workloads never pay
        for re-decoding shipped payloads.  Each sampled record gets a
        fragment parented under the ingest's WAL-metadata span, with the
        batch's transport send time as its duration — the "ship latency"
        leg of a cross-node trace.
        """
        service = self._shipper.service
        store = getattr(service, "trace_store", None)
        if store is None:
            return
        for position, payload in batch:
            try:
                record = WalRecord.from_payload(payload)
            except Exception:  # pragma: no cover - corrupt payload races
                continue
            trace = record.trace
            if trace is None or not trace.sampled:
                continue
            span = Span.completed(
                "wal.ship",
                send_seconds,
                peer=self.peer,
                doc_id=record.doc_id,
                position=str(position),
                batch_records=len(batch),
                batch_bytes=batch_bytes,
            )
            context = TraceContext(
                trace_id=trace.trace_id, span_id=new_span_id(), sampled=True
            )
            store.record(
                context,
                span,
                parent_span_id=trace.span_id,
                kind="ship",
                node=getattr(service, "name", None),
            )

    def _try_resume(self, resume: WalPosition | None) -> WalPosition | None:
        """Validate a follower's resume position; None = must bootstrap.

        A resume is honoured only when the position does not exceed the
        primary's durable end (a follower that applied records a crash
        discarded must rebuild) and its segment is still on disk.
        """
        if resume is None:
            return None
        end = self._shipper.service.wal_position()
        if end is None or resume > end:
            return None
        if not self._shipper.layout.wal_path(resume.segment_id).exists():
            return None
        self.resumed = True
        with self._lock:
            # a resumed follower has live state and can ack immediately:
            # no bootstrap grace, the ordinary stall clock applies
            self._acked_once = True
        self._transport.send(("hello", {"mode": "resume", "start": resume}))
        return resume

    def _bootstrap(self) -> WalPosition:
        """Ship the latest valid snapshot; returns the tail start position.

        Retries when a snapshot is pruned mid-read (a concurrent
        checkpoint superseded it twice) — the retry picks the newer one.
        """
        layout = self._shipper.layout
        ship_started = time.perf_counter()
        for _ in range(8):
            checkpoint_id = find_latest_valid(layout)
            if checkpoint_id is None:
                raise ReplicationError(
                    "primary has no valid snapshot to bootstrap from"
                )
            # pin the tail before the (possibly long) snapshot read, so a
            # concurrent checkpoint cannot fold the segments away first
            with self._lock:
                self._position = WalPosition(checkpoint_id + 1, 0)
            try:
                manifest, payloads = read_snapshot_payloads(layout, checkpoint_id)
            except PersistenceError:
                continue  # pruned or torn under us; re-pick
            self.snapshot_checkpoint_id = checkpoint_id
            self.snapshot_bytes = sum(len(p) for p in payloads.values())
            start = WalPosition(checkpoint_id + 1, 0)
            self._transport.send(("hello", {"mode": "snapshot", "start": start}))
            self._transport.send(
                ("snapshot", {"manifest": manifest, "files": payloads})
            )
            self._shipper._snapshot_bytes_metric.inc(self.snapshot_bytes)
            self._shipper._snapshot_ship_seconds.observe(
                time.perf_counter() - ship_started
            )
            return start
        raise ReplicationError("snapshot bootstrap kept losing races with pruning")

    def _drain_acks(self, block: bool) -> None:
        """Absorb follower messages; *block* waits one poll interval."""
        shipper = self._shipper
        while True:
            message = self._transport.recv(
                timeout=shipper.poll_interval if block else 0.0
            )
            if message is None:
                return
            if message[0] == "ack":
                with self._lock:
                    acked = message[1]
                    if self._acked is None or acked > self._acked:
                        self._acked = acked
                    self._last_ack_monotonic = time.monotonic()
                    # the follower is demonstrably alive and applying:
                    # the ordinary stall clock takes over from here
                    self._acked_once = True
            block = False  # drain whatever queued, then return

    def close(self) -> None:
        """End the session and wake the follower (idempotent)."""
        self._stop.set()
        try:
            self._transport.close()
        except Exception:  # pragma: no cover - best-effort
            pass
        if self._thread.is_alive() and self._thread is not threading.current_thread():
            self._thread.join(timeout=5.0)


class LogShipper:
    """Streams a durable service's snapshot + WAL to follower sessions.

    Parameters
    ----------
    service:
        The primary — must have been constructed with ``storage_dir`` (the
        WAL and snapshots are what get shipped).
    poll_interval:
        Seconds a caught-up session waits between WAL polls (the wait
        doubles as the ack-receive timeout).
    heartbeat_interval:
        Seconds between ``heartbeat`` messages to each follower.
    batch_max_records, batch_max_bytes:
        Bounds on one ``records`` message.
    stall_timeout:
        Seconds without an ack after which a *tailing* session stops
        pinning WAL segments (and reports itself stalled).  A revived
        follower whose segments were pruned is told to reconnect and
        re-bootstrap.
    bootstrap_timeout:
        Seconds a session may hold its retention pin before its
        follower's **first ack**.  Covers shipping the snapshot *and* the
        follower deserialising it and building its service — both
        legitimately slower than ``stall_timeout``; matches the
        follower's snapshot receive window by default.
    subscribe_timeout:
        Seconds a fresh session waits for the follower's subscribe.
    """

    def __init__(
        self,
        service,
        poll_interval: float = 0.02,
        heartbeat_interval: float = 0.5,
        batch_max_records: int = 256,
        batch_max_bytes: int = 4 * 1024 * 1024,
        stall_timeout: float = 60.0,
        bootstrap_timeout: float = 600.0,
        subscribe_timeout: float = 30.0,
    ) -> None:
        if service.storage_dir is None:
            raise ReplicationError(
                "log shipping needs a durable primary (storage_dir=...)"
            )
        self.service = service
        self.layout = service._layout
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.batch_max_records = batch_max_records
        self.batch_max_bytes = batch_max_bytes
        self.stall_timeout = stall_timeout
        self.bootstrap_timeout = bootstrap_timeout
        self.subscribe_timeout = subscribe_timeout
        self._auth_token: bytes | str | None = None
        self._lock = threading.Lock()
        self._sessions: list[ShipperSession] = []
        self._next_session_id = 0
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._closed = False
        # Shipping metrics live in the primary's registry, so one
        # render_text() covers service + persistence + replication.
        self.metrics: MetricsRegistry = service.metrics
        self._sessions_gauge = self.metrics.gauge(
            "koko_shipper_sessions", "Live follower shipping sessions."
        )
        self._sessions_gauge.set_function(lambda: float(len(self.sessions)))
        self._stalled_gauge = self.metrics.gauge(
            "koko_shipper_stalled_sessions",
            "Sessions whose follower stopped acking within the stall timeout.",
        )
        self._stalled_gauge.set_function(
            lambda: float(sum(1 for s in self.sessions if s.stalled))
        )
        self._records_metric = self.metrics.counter(
            "koko_shipper_records_shipped_total",
            "WAL records shipped to followers across all sessions.",
        )
        self._bytes_metric = self.metrics.counter(
            "koko_shipper_bytes_shipped_total",
            "WAL payload bytes shipped to followers across all sessions.",
        )
        self._snapshot_bytes_metric = self.metrics.counter(
            "koko_shipper_snapshot_bytes_shipped_total",
            "Snapshot bytes shipped during follower bootstraps.",
        )
        self._snapshot_ship_seconds = self.metrics.histogram(
            "koko_shipper_snapshot_ship_seconds",
            "Wall-clock per snapshot bootstrap (read + ship), pow-2 buckets.",
        )
        self._lag_gauge = self.metrics.gauge(
            "koko_shipper_lag_bytes",
            "Per-follower byte lag behind the durable end (-1 = unknown).",
            labelnames=("peer",),
        )
        service.register_wal_pin(self._wal_floor)

    # -- serving --------------------------------------------------------
    def serve(self, transport) -> ShipperSession:
        """Serve one follower over *transport*; returns the live session."""
        with self._lock:
            if self._closed:
                raise ReplicationError("log shipper is closed")
            session = ShipperSession(self, transport, self._next_session_id)
            self._next_session_id += 1
            self._sessions.append(session)
        session.start()
        return session

    def listen(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: bytes | str | None = None,
        allow_unauthenticated: bool = False,
    ) -> tuple[str, int]:
        """Accept TCP followers on ``host:port``; returns the bound address.

        ``port=0`` binds an ephemeral port.  Each accepted connection gets
        its own :class:`ShipperSession`.  With ``auth_token`` set, every
        accepted connection must pass the mutual handshake of
        :mod:`repro.net` before a frame is exchanged; a non-loopback
        *host* requires a token unless ``allow_unauthenticated=True``
        (:func:`~repro.net.check_listen`, whose module states the trust
        model).
        """
        check_listen(
            host, auth_token, allow_unauthenticated, "accept unauthenticated followers"
        )
        with self._lock:
            if self._closed:
                raise ReplicationError("log shipper is closed")
            if self._listener is not None:
                raise ReplicationError("log shipper is already listening")
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(16)
            self._listener = listener
            self._auth_token = auth_token
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="koko-shipper-accept", daemon=True
        )
        self._accept_thread.start()
        return listener.getsockname()[:2]

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while True:
            try:
                sock, addr = listener.accept()
            except OSError:
                return  # listener closed
            token = self._auth_token
            if token is not None and not self._authenticate(sock):
                sock.close()
                continue
            try:
                self.serve(TcpTransport(sock, name=f"tcp/{addr[0]}:{addr[1]}"))
            except ReplicationError:  # pragma: no cover - close race
                sock.close()
                return

    def _authenticate(self, sock: socket.socket) -> bool:
        """Challenge one accepted connection; False on mismatch/timeout.

        Runs inline in the accept loop under a short deadline, so one
        stalling dialer delays — but cannot wedge — later accepts.  (The
        transport built on the socket afterwards clears the timeout.)
        """
        try:
            sock.settimeout(5.0)
            return handshake(sock, self._auth_token, listener=True)
        except (TransportClosed, OSError):
            return False

    # -- retention + observability --------------------------------------
    def _wal_floor(self) -> int | None:
        """The lowest WAL segment id any live, non-stalled session needs."""
        with self._lock:
            sessions = list(self._sessions)
        floors = [s.pin() for s in sessions]
        return min((f for f in floors if f is not None), default=None)

    def _bytes_between(self, start: WalPosition, end: WalPosition) -> int | None:
        """On-disk byte distance from *start* to *end*, or None if unknowable."""
        if start >= end:
            return 0
        total = 0
        for segment_id in range(start.segment_id, end.segment_id + 1):
            path = self.layout.wal_path(segment_id)
            try:
                size = end.offset if segment_id == end.segment_id else path.stat().st_size
            except OSError:
                return None  # segment pruned (stalled follower): lag unknown
            total += size
            if segment_id == start.segment_id:
                total -= min(start.offset, size)
        return max(total, 0)

    def _session_ended(self, session: ShipperSession) -> None:
        with self._lock:
            if session in self._sessions:
                self._sessions.remove(session)

    @property
    def sessions(self) -> list[ShipperSession]:
        """The currently live follower sessions."""
        with self._lock:
            return list(self._sessions)

    def stats(self) -> dict:
        """Shipping stats: primary position plus one entry per session."""
        end = self.service.wal_position()
        return {
            "primary_position": str(end) if end else None,
            "sessions": [session.stats() for session in self.sessions],
        }

    def close(self) -> None:
        """Stop listening, end every session, drop the retention pin."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            listener = self._listener
            self._listener = None
            sessions = list(self._sessions)
        if listener is not None:
            try:
                # closing the fd alone does not wake a thread blocked in
                # accept(); shutdown() does
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:  # pragma: no cover - best-effort
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for session in sessions:
            session.close()
        self.service.unregister_wal_pin(self._wal_floor)
