"""HTTP telemetry plane: ``/metrics``, health probes, and the cluster view.

Two pieces, both dependency-free (asyncio + stdlib ``http.client``):

* :class:`TelemetryServer` — a tiny asyncio HTTP/1.1 endpoint that runs
  in a daemon thread (:class:`~repro.net.LoopServer`) and attaches to
  any *node* (a ``KokoService`` primary, a ``ReplicaService`` follower,
  or a ``ReplicaSet`` router — the node is duck-typed, so this module
  imports nothing from the service or replication layers).  Endpoints:

  ===================  ====================================================
  ``GET /metrics``     Prometheus text exposition of the node's registry
  ``GET /metrics.json``  the same registry as one JSON document
  ``GET /healthz``     liveness: 200 while the node object is open
  ``GET /readyz``      readiness: 200 only when every check passes (WAL
                       durability advancing, checkpoint not wedged,
                       replica connected and under the lag bound, scraped
                       cluster peers ready)
  ``GET /stats``       what the registry does not hold: node identity,
                       last checkpoint error, p50/p95/p99 latency
                       estimates, WAL position or replication /
                       routing state per node kind
  ``GET /slowlog``     newest-first slow-op entries (``?limit=N``,
                       ``?trace_id=...`` to filter to one trace)
  ``GET /traces``      newest-first sampled-trace summaries from the
                       node's :class:`~repro.observability.tracestore.
                       TraceStore` (``?limit=N``)
  ``GET /traces/<id>`` that trace's node-local fragments
  ``GET /cluster``     the merged cluster view (requires an attached
                       :class:`ClusterTelemetry`; 404 otherwise)
  ``GET /cluster/traces/<id>``  the cross-node assembled trace: the
                       primary's own fragments plus every peer's
                       ``/traces/<id>``, clock-offset aligned and
                       stitched into one tree
  ===================  ====================================================

  Every response closes the connection (``Connection: close``) — scrape
  clients open one short-lived connection per probe, which keeps the
  server a few dozen lines and good for telemetry-rate traffic (1–10 Hz),
  not a query-serving front end.

* :class:`ClusterTelemetry` — a scraper that polls each registered
  node's ``/stats`` + ``/readyz`` over TCP, merges the per-node health,
  lag and applied positions into one cluster view (rendered at
  ``/cluster`` on the node it is attached to, normally the primary).  A
  ``ReplicaSet`` router does not read it: it holds its replicas in
  process and checks their connection, lag and apply progress directly.
  When the primary's ``LogShipper`` is provided, its authoritative
  per-session byte lag joins the readiness verdict — a follower that
  stops acking flips the primary's ``/readyz`` even if the follower's
  own endpoint still answers with stale self-reported lag.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

from ..net import LoopServer
from .metrics import MetricsRegistry, histogram_quantiles
from .tracestore import stitch_fragments

__all__ = ["ClusterTelemetry", "TelemetryServer", "http_get_json", "scrape"]

_TEXT = "text/plain; charset=utf-8"
_JSON = "application/json; charset=utf-8"
_PROM = "text/plain; version=0.0.4; charset=utf-8"

#: seconds a client has to send the whole request head (request line and
#: every header line); a client that trickles header lines is cut off here
REQUEST_HEAD_SECONDS = 10.0

#: ``/readyz`` fails once a single checkpoint has been in progress longer
#: than this (a wedged checkpointer pins the WAL forever)
CHECKPOINT_WEDGE_SECONDS = 300.0
#: ``/readyz`` fails when appended records outrun synced records and the
#: synced count has not advanced for this long (the fsync path wedged:
#: writes are no longer becoming durable)
WAL_STALL_SECONDS = 60.0
#: seconds between :class:`ClusterTelemetry`'s background sweeps
CLUSTER_POLL_SECONDS = 1.0
#: the per-request HTTP timeout of a :class:`ClusterTelemetry` scrape
SCRAPE_TIMEOUT_SECONDS = 2.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def scrape(host: str, port: int, path: str, timeout: float = 5.0) -> tuple[int, bytes]:
    """``GET http://host:port/path`` -> ``(status, body)``, stdlib-only.

    One short-lived connection per call, matching the server's
    ``Connection: close`` behaviour.  Network errors propagate.
    """
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def http_get_json(
    host: str, port: int, path: str, timeout: float = 5.0
) -> tuple[int, object]:
    """:func:`scrape` a JSON endpoint -> ``(status, parsed body)``.

    ``None`` for an empty or non-JSON body; network errors propagate.
    """
    status, body = scrape(host, port, path, timeout=timeout)
    if not body:
        return status, None
    try:
        return status, json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return status, None


def _node_kind(node) -> str:
    """``service`` / ``replica`` / ``router``, duck-typed."""
    if hasattr(node, "replication_stats") and hasattr(node, "service"):
        return "replica"
    if hasattr(node, "primary") and hasattr(node, "replicas"):
        return "router"
    return "service"


def _underlying_service(node):
    """The ``KokoService`` whose stats/slowlog/traces back *node*."""
    kind = _node_kind(node)
    if kind == "replica":
        return node.service
    if kind == "router":
        return node.primary
    return node


def _query_int(query: str, key: str, default: int) -> int:
    """The integer value of *key* in a raw query string, else *default*."""
    for part in query.split("&"):
        name, _, value = part.partition("=")
        if name == key:
            try:
                return int(value)
            except ValueError:
                return default
    return default


def _query_str(query: str, key: str) -> str | None:
    """The raw string value of *key* in a query string, else ``None``."""
    for part in query.split("&"):
        name, _, value = part.partition("=")
        if name == key and value:
            return value
    return None


def _dumps(payload: object) -> bytes:
    """JSON-encode an endpoint payload (non-JSON leaves become strings)."""
    return (json.dumps(payload, indent=2, default=str) + "\n").encode("utf-8")


async def _read_head(reader) -> list[str]:
    """The request line's words; the header lines after it are drained
    (every response closes the connection, so none of them matters)."""
    parts = (await reader.readline()).decode("latin-1").split()
    while await reader.readline() not in (b"", b"\r\n", b"\n"):
        pass
    return parts


class TelemetryServer(LoopServer):
    """One node's HTTP telemetry endpoint (see the module docstring).

    Parameters
    ----------
    node:
        The ``KokoService``, ``ReplicaService`` or ``ReplicaSet`` to
        expose.  Only its public observability surface is used
        (``metrics``, ``stats.last_checkpoint_error``, ``recent_slow_ops``,
        ``replication_stats`` / ``routing_stats``).
    host / port:
        Bind address; port 0 (the default) picks a free port —
        :meth:`start` returns the bound ``(host, port)``.
    name:
        Node name in ``/stats`` (defaults to ``node.name``).
    max_lag_bytes:
        Readiness bound on replica byte lag; ``None`` skips the check.
        The checkpoint-wedge and WAL-stall bounds of ``/readyz`` are
        :data:`CHECKPOINT_WEDGE_SECONDS` and :data:`WAL_STALL_SECONDS`.
    cluster:
        An optional :class:`ClusterTelemetry`; serving it at
        ``/cluster`` and folding its verdict into ``/readyz`` makes this
        node (normally the primary) the cluster's health authority.
    rpc_server:
        An optional :class:`~repro.rpc.server.RpcServer` co-located on
        this node; ``/readyz`` then also requires ``rpc_listening`` —
        a node whose RPC front door died should fall out of rotation.
    """

    def __init__(
        self,
        node,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        name: str | None = None,
        max_lag_bytes: int | None = None,
        cluster: "ClusterTelemetry | None" = None,
        rpc_server=None,
    ) -> None:
        self.node = node
        self.cluster = cluster
        self.rpc_server = rpc_server
        self.name = name if name is not None else getattr(node, "name", "node")
        super().__init__(host, port, f"telemetry-{self.name}")
        self.max_lag_bytes = max_lag_bytes
        self._kind = _node_kind(node)
        self._probe_lock = threading.Lock()
        self._checkpoint_first_seen: float | None = None
        self._wal_synced_seen: tuple[int, float] = (0, time.monotonic())

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        status, content_type, body = 400, _TEXT, b"bad request\n"
        try:
            parts = await asyncio.wait_for(_read_head(reader), REQUEST_HEAD_SECONDS)
            if len(parts) >= 2:
                status, content_type, body = self._respond(parts[0].upper(), parts[1])
        except asyncio.TimeoutError:
            pass  # the head did not arrive in time: 400
        except Exception:
            status, content_type, body = 500, _TEXT, b"internal error\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except Exception:  # pragma: no cover - peer went away mid-response
            pass

    def _respond(self, method: str, target: str) -> tuple[int, str, bytes]:
        """Route one request to its endpoint; errors become 500 bodies."""
        path, _, query = target.partition("?")
        if method != "GET":
            return 405, _TEXT, b"only GET is supported\n"
        try:
            if path == "/metrics":
                return 200, _PROM, self._registry().render_text().encode("utf-8")
            if path == "/metrics.json":
                body = self._registry().render_json(indent=2) + "\n"
                return 200, _JSON, body.encode("utf-8")
            if path == "/healthz":
                return self._probe(*self.liveness())
            if path == "/readyz":
                return self._probe(*self.readiness())
            if path == "/stats":
                return 200, _JSON, _dumps(self.stats_document())
            if path == "/slowlog":
                limit = max(0, _query_int(query, "limit", 50))
                trace_id = _query_str(query, "trace_id")
                service = _underlying_service(self.node)
                if trace_id is not None:
                    entries = service.recent_slow_ops(limit, trace_id=trace_id)
                else:
                    entries = service.recent_slow_ops(limit)
                return 200, _JSON, _dumps(entries)
            if path == "/traces":
                store = _underlying_service(self.node).trace_store
                limit = max(1, _query_int(query, "limit", 50))
                payload = {
                    "node": self.name,
                    "stored": len(store),
                    "recorded_total": store.recorded_total,
                    "traces": store.recent(limit),
                }
                return 200, _JSON, _dumps(payload)
            if path.startswith("/traces/"):
                store = _underlying_service(self.node).trace_store
                trace_id = path[len("/traces/") :]
                fragments = store.get(trace_id)
                if fragments is None:
                    return 404, _TEXT, f"unknown trace {trace_id}\n".encode("utf-8")
                payload = {
                    "node": self.name,
                    "trace_id": trace_id,
                    "fragments": fragments,
                }
                return 200, _JSON, _dumps(payload)
            if path.startswith("/cluster/traces/"):
                if self.cluster is None:
                    return 404, _TEXT, b"no cluster telemetry attached to this node\n"
                trace_id = path[len("/cluster/traces/") :]
                assembled = self.cluster.assemble_trace(
                    trace_id, skip_endpoint=self.address
                )
                if not assembled["fragments"]:
                    return 404, _TEXT, f"unknown trace {trace_id}\n".encode("utf-8")
                return 200, _JSON, _dumps(assembled)
            if path == "/cluster":
                if self.cluster is None:
                    return 404, _TEXT, b"no cluster telemetry attached to this node\n"
                return 200, _JSON, _dumps(self.cluster.cluster_view())
            return 404, _TEXT, f"unknown path {path}\n".encode("utf-8")
        except Exception as exc:
            return 500, _TEXT, f"error serving {path}: {exc!r}\n".encode("utf-8")

    def _probe(self, ok: bool, checks: dict, detail: dict) -> tuple[int, str, bytes]:
        """Render one liveness/readiness verdict as a probe response."""
        payload = {
            "status": "ok" if ok else "unavailable",
            "checks": checks,
            "detail": detail,
        }
        return (200 if ok else 503), _JSON, _dumps(payload)

    def _registry(self) -> MetricsRegistry:
        """The node's metrics registry (every node kind exposes one)."""
        return self.node.metrics

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def liveness(self) -> tuple[bool, dict, dict]:
        """``/healthz``: the node object is open and can serve at all."""
        closed = bool(getattr(self.node, "closed", False)) or bool(
            getattr(_underlying_service(self.node), "closed", False)
        )
        checks = {"open": not closed}
        return all(checks.values()), checks, {"kind": self._kind}

    def readiness(self) -> tuple[bool, dict, dict]:
        """``/readyz``: every check a load balancer should gate on.

        Returns ``(ok, checks, detail)``: *checks* maps check name to
        pass/fail (the verdict is their conjunction), *detail* carries
        the numbers behind them (lag bytes, stall ages, cluster
        problems).
        """
        service = _underlying_service(self.node)
        registry = service.metrics
        checks: dict[str, bool] = {}
        detail: dict[str, object] = {"kind": self._kind}
        checks["open"] = not (
            bool(getattr(self.node, "closed", False))
            or bool(getattr(service, "closed", False))
        )
        checks["checkpoint_not_wedged"] = self._checkpoint_not_wedged(registry)
        checks["wal_advancing"] = self._wal_advancing(registry, detail)
        if self.rpc_server is not None:
            checks["rpc_listening"] = bool(self.rpc_server.listening)
        if self._kind == "replica":
            checks["connected"] = bool(
                self.node.connected and not self.node.restart_requested
            )
            lag = self.node.lag_bytes
            detail["lag_bytes"] = lag
            if self.max_lag_bytes is not None:
                # lag None = unknown (pre-heartbeat grace); the connected
                # check covers the disconnected case
                checks["lag_under_bound"] = lag is None or lag <= self.max_lag_bytes
                detail["max_lag_bytes"] = self.max_lag_bytes
        if self.cluster is not None:
            cluster_ok, cluster_detail = self.cluster.ready()
            checks["cluster_ready"] = cluster_ok
            detail["cluster"] = cluster_detail
        elif self._kind == "router":
            unready = []
            for replica in self.node.replicas:
                name = getattr(replica, "name", repr(replica))
                lag = replica.lag_bytes
                if not replica.connected or replica.restart_requested:
                    unready.append(f"{name}: disconnected")
                elif (
                    self.max_lag_bytes is not None
                    and lag is not None
                    and lag > self.max_lag_bytes
                ):
                    unready.append(f"{name}: lag {lag} > {self.max_lag_bytes}")
            checks["replicas_ready"] = not unready
            detail["unready_replicas"] = unready
        return all(checks.values()), checks, detail

    def _checkpoint_not_wedged(self, registry: MetricsRegistry) -> bool:
        """False once one checkpoint has run past the wedge bound."""
        with self._probe_lock:
            now = time.monotonic()
            if registry.get("koko_checkpoint_in_progress").value > 0:
                if self._checkpoint_first_seen is None:
                    self._checkpoint_first_seen = now
                return now - self._checkpoint_first_seen <= CHECKPOINT_WEDGE_SECONDS
            self._checkpoint_first_seen = None
            return True

    def _wal_advancing(self, registry: MetricsRegistry, detail: dict) -> bool:
        """False when an append/sync backlog exists and syncs stopped."""
        with self._probe_lock:
            now = time.monotonic()
            synced = registry.get("koko_wal_records_synced_total").value
            last_synced, changed_at = self._wal_synced_seen
            if synced != last_synced:
                self._wal_synced_seen = (synced, now)
                changed_at = now
            backlog = registry.get("koko_wal_records_appended_total").value - synced
            detail["wal_unsynced_records"] = backlog
            return backlog <= 0 or (now - changed_at) <= WAL_STALL_SECONDS

    # ------------------------------------------------------------------
    # documents
    # ------------------------------------------------------------------
    def stats_document(self) -> dict:
        """The ``/stats`` payload: what the registry does not hold.

        Node identity, the last checkpoint error, p50/p95/p99 estimated
        from ``koko_query_latency_seconds``, and the WAL position or the
        node kind's replication / routing state.  Counters are served by
        ``/metrics`` and ``/metrics.json`` only.
        """
        service = _underlying_service(self.node)
        latency = service.metrics.get("koko_query_latency_seconds")
        document: dict = {
            "node": {"name": self.name, "kind": self._kind, "documents": len(service)},
            "last_checkpoint_error": service.stats.last_checkpoint_error,
            "query_latency_percentiles": {
                f"p{percentile:g}": estimate
                for percentile, estimate in histogram_quantiles(latency).items()
            },
        }
        if self._kind == "replica":
            document["replication"] = self.node.replication_stats()
        else:
            position = service.wal_position()
            document["wal_position"] = str(position) if position is not None else None
        if self._kind == "router":
            document["routing"] = self.node.routing_stats()
        return document


class ClusterTelemetry:
    """Scrapes every node's telemetry endpoint into one cluster view.

    Register each node's ``(host, port)`` with :meth:`add_peer`, then
    either :meth:`start` the background poller
    (:data:`CLUSTER_POLL_SECONDS` between sweeps, each request bounded by
    :data:`SCRAPE_TIMEOUT_SECONDS`) or call :meth:`scrape_once` on demand.
    The merged view (:meth:`cluster_view`) is what the primary's
    :class:`TelemetryServer` renders at ``/cluster``.

    Parameters
    ----------
    primary:
        The primary service (for its WAL position and document count in
        the view); optional so a detached observer can also aggregate.
    shipper:
        The primary's ``LogShipper``; when given, each live session's
        primary-computed byte lag and stall verdict join the readiness
        decision — authoritative even when a wedged follower's endpoint
        keeps serving stale self-reported lag.
    max_lag_bytes:
        Byte-lag bound applied to both scraped and shipper-side lag.
    """

    def __init__(
        self,
        primary=None,
        *,
        shipper=None,
        max_lag_bytes: int | None = None,
    ) -> None:
        self.primary = primary
        self.shipper = shipper
        self.max_lag_bytes = max_lag_bytes
        self._lock = threading.Lock()
        self._peers: dict[str, tuple[str, int]] = {}
        self._views: dict[str, dict] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_peer(self, name: str, host: str, port: int) -> None:
        """Register node *name*'s telemetry endpoint for scraping."""
        with self._lock:
            self._peers[name] = (str(host), int(port))

    def remove_peer(self, name: str) -> None:
        """Forget node *name* (idempotent); its last view is dropped too."""
        with self._lock:
            self._peers.pop(name, None)
            self._views.pop(name, None)

    @property
    def peers(self) -> dict[str, tuple[str, int]]:
        """The registered ``{name: (host, port)}`` endpoints."""
        with self._lock:
            return dict(self._peers)

    # ------------------------------------------------------------------
    # scraping
    # ------------------------------------------------------------------
    def scrape_once(self) -> dict:
        """Scrape every peer now; returns the merged cluster view."""
        with self._lock:
            peers = dict(self._peers)
        for name, (host, port) in peers.items():
            view = self._scrape_peer(name, host, port)
            with self._lock:
                if name in self._peers:  # lost a remove_peer race: drop it
                    self._views[name] = view
        return self.cluster_view()

    def _scrape_peer(self, name: str, host: str, port: int) -> dict:
        """One node's merged ``/stats`` + ``/readyz`` scrape result."""
        view: dict = {
            "name": name,
            "endpoint": f"{host}:{port}",
            "scrape_ok": False,
            "ready": False,
            "ready_checks": None,
            "kind": None,
            "documents": None,
            "connected": None,
            "lag_bytes": None,
            "applied_position": None,
            "clock_offset_seconds": None,
            "error": None,
        }
        try:
            status, stats = http_get_json(
                host, port, "/stats", timeout=SCRAPE_TIMEOUT_SECONDS
            )
            ready_status, ready = http_get_json(
                host, port, "/readyz", timeout=SCRAPE_TIMEOUT_SECONDS
            )
        except Exception as exc:
            view["error"] = repr(exc)
            return view
        view["scrape_ok"] = status == 200
        view["ready"] = ready_status == 200
        if isinstance(ready, dict):
            view["ready_checks"] = ready.get("checks")
        if isinstance(stats, dict):
            node = stats.get("node") or {}
            view["kind"] = node.get("kind")
            view["documents"] = node.get("documents")
            replication = stats.get("replication")
            if isinstance(replication, dict):
                view["connected"] = replication.get("connected")
                view["lag_bytes"] = replication.get("lag_bytes")
                view["applied_position"] = replication.get("applied_position")
                view["clock_offset_seconds"] = replication.get(
                    "clock_offset_seconds"
                )
        return view

    def start(self) -> None:
        """Begin background polling every :data:`CLUSTER_POLL_SECONDS`."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._poll_loop, name="cluster-telemetry", daemon=True
        )
        self._thread.start()

    def _poll_loop(self) -> None:
        while not self._stop.wait(CLUSTER_POLL_SECONDS):
            try:
                self.scrape_once()
            except Exception:  # pragma: no cover - scrape errors live in views
                pass

    def close(self) -> None:
        """Stop the background poller (idempotent)."""
        self._stop.set()
        thread = self._thread
        self._thread = None
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "ClusterTelemetry":
        """Context-manager entry: :meth:`start`, returning the aggregator."""
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    # ------------------------------------------------------------------
    # cross-node trace assembly
    # ------------------------------------------------------------------
    def assemble_trace(
        self, trace_id: str, skip_endpoint: tuple[str, int] | None = None
    ) -> dict:
        """Stitch every node's fragments of *trace_id* into one tree.

        Gathers the primary's own
        :class:`~repro.observability.tracestore.TraceStore` fragments
        plus each registered peer's ``/traces/<id>``, deduplicates by
        span id (the primary may also be registered as a peer), aligns
        each replica's fragment timestamps by its scraped
        ``clock_offset_seconds`` (the primary's clock is the reference),
        and returns the :func:`stitch_fragments` tree — served at
        ``/cluster/traces/<id>``.  Unreachable peers are reported in an
        ``"errors"`` list rather than failing the assembly.

        *skip_endpoint* names a peer ``(host, port)`` not to scrape: the
        ``TelemetryServer`` serving this assembly passes its own bound
        address, since a synchronous scrape of itself from inside its
        own event loop would block until the timeout (and the primary's
        fragments were already read directly from its store).
        """
        collected: dict[str, dict] = {}

        def absorb(fragments, offset: float | None = None) -> None:
            for fragment in fragments:
                if not isinstance(fragment, dict) or "span_id" not in fragment:
                    continue
                fragment = dict(fragment)
                if offset and isinstance(fragment.get("ts_unix"), (int, float)):
                    fragment["ts_unix"] = round(fragment["ts_unix"] - offset, 6)
                collected.setdefault(fragment["span_id"], fragment)

        store = getattr(self.primary, "trace_store", None)
        if store is not None:
            absorb(store.get(trace_id) or [])
        with self._lock:
            peers = dict(self._peers)
            offsets = {
                name: (self._views.get(name) or {}).get("clock_offset_seconds")
                for name in peers
            }
        errors: list[str] = []
        for name, (host, port) in peers.items():
            if skip_endpoint is not None and (host, port) == (
                str(skip_endpoint[0]),
                int(skip_endpoint[1]),
            ):
                continue
            try:
                status, payload = http_get_json(
                    host, port, f"/traces/{trace_id}", timeout=SCRAPE_TIMEOUT_SECONDS
                )
            except Exception as exc:
                errors.append(f"{name}: {exc!r}")
                continue
            if status != 200 or not isinstance(payload, dict):
                continue
            absorb(payload.get("fragments") or [], offset=offsets.get(name))
        assembled = stitch_fragments(list(collected.values()))
        assembled["trace_id"] = trace_id
        if errors:
            assembled["errors"] = errors
        return assembled

    # ------------------------------------------------------------------
    # merged views
    # ------------------------------------------------------------------
    def ready(self) -> tuple[bool, dict]:
        """``(ok, detail)``: the whole cluster's readiness verdict.

        Fails when any scraped node is unreachable or not ready, when a
        scraped lag exceeds ``max_lag_bytes``, or when a live shipper
        session is stalled / over the bound.  Before the first scrape
        (no views, no sessions) the verdict is vacuously ok.
        """
        problems: list[str] = []
        with self._lock:
            views = [dict(view) for view in self._views.values()]
        for view in views:
            lag = view["lag_bytes"]
            if not view["scrape_ok"]:
                problems.append(f"{view['name']}: unreachable ({view['error']})")
            elif not view["ready"]:
                problems.append(f"{view['name']}: not ready")
            elif (
                self.max_lag_bytes is not None
                and lag is not None
                and lag > self.max_lag_bytes
            ):
                problems.append(
                    f"{view['name']}: lag {lag} > bound {self.max_lag_bytes}"
                )
        if self.shipper is not None:
            for session in self.shipper.sessions:
                stats = session.stats()
                peer, lag = stats.get("peer"), stats.get("lag_bytes")
                if stats.get("stalled"):
                    problems.append(f"session {peer}: stalled")
                elif (
                    self.max_lag_bytes is not None
                    and lag is not None
                    and lag > self.max_lag_bytes
                ):
                    problems.append(
                        f"session {peer}: lag {lag} > bound {self.max_lag_bytes}"
                    )
        return not problems, {"problems": problems, "nodes_scraped": len(views)}

    def cluster_view(self) -> dict:
        """The merged ``/cluster`` payload: per-node views + verdict."""
        ok, detail = self.ready()
        with self._lock:
            nodes = [dict(view) for view in self._views.values()]
        sessions = []
        if self.shipper is not None:
            sessions = [session.stats() for session in self.shipper.sessions]
        view: dict = {
            "ready": ok,
            "detail": detail,
            "max_lag_bytes": self.max_lag_bytes,
            "nodes": nodes,
            "shipper_sessions": sessions,
        }
        if self.primary is not None:
            position = self.primary.wal_position()
            view["primary"] = {
                "name": getattr(self.primary, "name", "primary"),
                "wal_position": str(position) if position is not None else None,
                "documents": len(self.primary),
            }
        return view
