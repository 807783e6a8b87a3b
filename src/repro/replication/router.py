"""A replica-aware query router: primary + N replicas behind one ``query()``.

:class:`ReplicaSet` fans read traffic across a primary
:class:`~repro.service.KokoService` and any number of read-only
followers, with the staleness controls a replicated read path needs:

* **round-robin** across healthy, sufficiently-fresh replicas (the
  primary serves whatever the replicas cannot);
* **read-your-writes** — :meth:`add_document` / :meth:`remove_document`
  return the primary's durable WAL position as an *offset token*; a
  query carrying ``read_your_writes=token`` is only routed to replicas
  whose applied position has reached the token (else the primary serves
  it);
* **bounded staleness** — ``max_lag_bytes`` (per router or per query)
  rejects replicas whose byte lag behind the primary exceeds the bound;
* **failover** — a replica that disconnected, whose applier died, that
  was told to re-bootstrap, or that has made no apply progress for
  :data:`FAILOVER_SECONDS` while the primary advanced, stops receiving
  queries; a replica that raises mid-query is skipped, the query is
  re-routed (ultimately to the primary, which always answers), and the
  failed replica is benched for :data:`SUSPEND_SECONDS` — apply progress
  rehabilitates it sooner, and on a write-idle primary the bench simply
  expires, so one transient error never removes a replica for good.

The router is synchronous and in-process: it holds direct references to
the replica objects.  Cross-process read scaling runs one router (or a
bare replica) per process, each replica dialing the primary's shipping
port with :func:`~repro.net.connect_tcp`.
"""

from __future__ import annotations

import threading
import time

from ..errors import KokoSemanticError, KokoSyntaxError
from ..observability.metrics import MetricsRegistry
from ..persistence import WalPosition

__all__ = ["ReplicaSet", "ReplicaSetStats"]

#: a replica whose applied position has not advanced for this long while
#: the primary's log end is ahead of it is stuck ("stopped acking") and
#: out of rotation until it progresses again
FAILOVER_SECONDS = 5.0
#: how long a replica that raised mid-query stays benched; apply progress
#: lifts the bench early, and otherwise it expires on its own, so a
#: transient failure on a write-idle primary cannot bench it for good
SUSPEND_SECONDS = 1.0

_UNSET = object()


class ReplicaSetStats:
    """Registers one :class:`ReplicaSet`'s routing counters and records them.

    The counters live in *registry* — the primary's, so
    ``primary.metrics.render_text()`` includes routing traffic — and are
    read from there by name (``koko_router_*``).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._primary = self.registry.counter(
            "koko_router_primary_queries_total",
            "Queries the router served from the primary.",
        )
        self._replica = self.registry.counter(
            "koko_router_replica_queries_total",
            "Queries the router served per replica.",
            labelnames=("replica",),
        )
        self._rejections = self.registry.counter(
            "koko_router_rejections_total",
            "Replicas skipped per staleness/health reason.",
            labelnames=("reason",),
        )
        self._failovers = self.registry.counter(
            "koko_router_failovers_total",
            "Replicas that failed mid-query and were routed around.",
        )

    def record_primary(self) -> None:
        """Account one query served by the primary."""
        self._primary.inc()

    def record_replica(self, name: str) -> None:
        """Account one query served by replica *name*."""
        self._replica.labels(name).inc()

    def record_rejection(self, kind: str) -> None:
        """Account one replica skipped for staleness/health (*kind*)."""
        if kind not in ("read_your_writes", "lag"):
            kind = "health"
        self._rejections.labels(kind).inc()

    def record_failover(self) -> None:
        """Account one replica that failed mid-query and was routed around."""
        self._failovers.inc()


class _ReplicaHealth:
    """Progress tracking for failover decisions."""

    def __init__(self) -> None:
        self.last_applied: WalPosition | None = None
        self.last_progress_monotonic = time.monotonic()
        self.suspended_until = 0.0  # monotonic deadline; 0 = not benched


class ReplicaSet:
    """Routes reads across a primary and its replicas; writes to the primary.

    Parameters
    ----------
    primary:
        The writable :class:`~repro.service.KokoService`.
    replicas:
        Initial read-only followers (more can join via :meth:`add_replica`).
    max_lag_bytes:
        Default staleness bound: replicas lagging more than this many
        bytes behind the primary's durable end are not routed to.
        ``None`` (default) accepts any lag.

    The failover and bench windows are :data:`FAILOVER_SECONDS` and
    :data:`SUSPEND_SECONDS`.
    """

    def __init__(
        self,
        primary,
        replicas=(),
        max_lag_bytes: int | None = None,
    ) -> None:
        self.primary = primary
        self.max_lag_bytes = max_lag_bytes
        # routing counters join the primary's registry, so the primary's
        # exposition covers the whole replicated read path
        self.stats = ReplicaSetStats(primary.metrics)
        self._lock = threading.Lock()
        self._replicas: list = []
        self._health: dict[int, _ReplicaHealth] = {}
        self._rr = 0
        for replica in replicas:
            self.add_replica(replica)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_replica(self, replica) -> None:
        """Put *replica* into the read rotation."""
        with self._lock:
            if replica not in self._replicas:
                self._replicas.append(replica)
                self._health[id(replica)] = _ReplicaHealth()

    def remove_replica(self, replica) -> None:
        """Take *replica* out of the rotation (idempotent; does not close it)."""
        with self._lock:
            if replica in self._replicas:
                self._replicas.remove(replica)
                self._health.pop(id(replica), None)

    @property
    def replicas(self) -> list:
        """The replicas currently in rotation."""
        with self._lock:
            return list(self._replicas)

    # ------------------------------------------------------------------
    # writes (primary only) — return offset tokens
    # ------------------------------------------------------------------
    def add_document(self, text: str, doc_id: str | None = None, **kwargs):
        """Ingest through the primary; returns ``(document, token)``.

        The token is the primary's durable WAL position *after* the add —
        pass it to :meth:`query` as ``read_your_writes`` to guarantee the
        answering node has applied this write.  ``None`` on a memory-only
        primary (which cannot replicate anyway).
        """
        document = self.primary.add_document(text, doc_id=doc_id, **kwargs)
        return document, self.primary.wal_position()

    def add_documents(self, texts, doc_ids=None, **kwargs):
        """Bulk ingest through the primary; returns ``(documents, token)``.

        One read-your-writes token covers the whole batch (the primary's
        durable position after the last document) — querying with it
        guarantees the answering node has applied every document of the
        batch.  Keyword arguments (``batch_size``, ``wait_durable``)
        forward to :meth:`KokoService.add_documents`.
        """
        documents = self.primary.add_documents(texts, doc_ids=doc_ids, **kwargs)
        return documents, self.primary.wal_position()

    def remove_document(self, doc_id: str, **kwargs):
        """Remove through the primary; returns ``(document, token)``.

        Keyword arguments (``trace_context``, ``client_id``) forward to
        :meth:`KokoService.remove_document`.
        """
        document = self.primary.remove_document(doc_id, **kwargs)
        return document, self.primary.wal_position()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def query(
        self,
        query,
        read_your_writes: WalPosition | None = None,
        max_lag_bytes=_UNSET,
        prefer_primary: bool = False,
        **kwargs,
    ):
        """Evaluate one query on the freshest-eligible node.

        Parameters
        ----------
        query:
            Query text (or pre-parsed/compiled form), as
            :meth:`KokoService.query` accepts.
        read_your_writes:
            An offset token from :meth:`add_document` /
            :meth:`remove_document`: only replicas that have applied up to
            the token are eligible (the primary trivially is).
        max_lag_bytes:
            Per-query override of the router's staleness bound.
        prefer_primary:
            Route to the primary outright (diagnostics; strongest
            consistency).
        **kwargs:
            Forwarded to the serving node's ``query``.
        """
        if not prefer_primary:
            bound = self.max_lag_bytes if max_lag_bytes is _UNSET else max_lag_bytes
            for replica in self._eligible(read_your_writes, bound):
                try:
                    result = replica.query(query, **kwargs)
                except (KokoSyntaxError, KokoSemanticError):
                    raise  # the query's fault — every node would refuse it
                except Exception:
                    self.stats.record_failover()
                    self._suspend(replica)
                    continue
                self.stats.record_replica(getattr(replica, "name", repr(replica)))
                return result
        self.stats.record_primary()
        return self.primary.query(query, **kwargs)

    def query_batch(self, queries, **kwargs) -> list:
        """Route a batch query-by-query (each picks the next eligible node)."""
        return [self.query(query, **kwargs) for query in queries]

    def _eligible(self, token: WalPosition | None, max_lag: int | None):
        """Replicas fit to serve, round-robin rotated, staleness-checked."""
        with self._lock:
            replicas = list(self._replicas)
            start = self._rr
            self._rr += 1
        count = len(replicas)
        for index in range(count):
            replica = replicas[(start + index) % count]
            if not self._healthy(replica):
                self.stats.record_rejection("health")
                continue
            if token is not None and not replica.caught_up_to(token):
                self.stats.record_rejection("read_your_writes")
                continue
            if max_lag is not None:
                lag = replica.lag_bytes
                if lag is None or lag > max_lag:
                    self.stats.record_rejection("lag")
                    continue
            yield replica

    def _healthy(self, replica) -> bool:
        """Connected, applying, not told to re-bootstrap, not stuck."""
        if not replica.connected or replica.restart_requested:
            return False
        health = self._health.get(id(replica))
        if health is None:  # pragma: no cover - removed concurrently
            return False
        now = time.monotonic()
        applied = replica.applied_position
        with self._lock:
            if applied != health.last_applied:
                health.last_applied = applied
                health.last_progress_monotonic = now
                health.suspended_until = 0.0  # progress lifts the bench early
            if now < health.suspended_until:
                return False
            primary_end = self.primary.wal_position()
            behind = (
                primary_end is not None
                and (applied is None or applied < primary_end)
            )
            if behind and now - health.last_progress_monotonic > FAILOVER_SECONDS:
                return False  # stopped acking while the primary advanced
        return True

    def _suspend(self, replica) -> None:
        """Bench a replica that failed a query for :data:`SUSPEND_SECONDS`
        (apply progress lifts the bench early)."""
        with self._lock:
            health = self._health.get(id(replica))
            if health is not None:
                health.suspended_until = time.monotonic() + SUSPEND_SECONDS

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """The primary's registry, which holds the routing counters."""
        return self.stats.registry

    def routing_stats(self) -> dict:
        """Each member's replication state and the primary's WAL position.

        The routing counters are ``koko_router_*`` in :attr:`metrics`.
        """
        members = []
        for replica in self.replicas:
            describe = getattr(replica, "replication_stats", None)
            members.append(describe() if describe else repr(replica))
        position = self.primary.wal_position()
        return {
            "replicas": members,
            "primary_position": str(position) if position is not None else None,
        }

    def __len__(self) -> int:
        """Number of replicas currently in rotation."""
        return len(self.replicas)
