"""KokoService — a concurrent, shardable, durable query-serving layer over KOKO.

The batch pipeline of the paper builds the multi-index once over a frozen
corpus and evaluates one query at a time.  ``KokoService`` turns that into
a long-lived server:

* **Incremental ingestion** — :meth:`add_document` annotates raw text with
  the NLP pipeline and folds it into the live word, entity, PL and POS
  indexes (no rebuild); :meth:`remove_document` un-indexes a document.
* **Staged concurrent ingest** — the write path is a pipeline: reserve a
  sentence-id range under the meta lock (microseconds), run NLP annotation
  *outside every lock* (optionally on a thread or process annotation
  pool), append to the write-ahead log under its own group-commit
  machinery, and splice postings under only the target shard's write lock.
  Writers on different shards therefore ingest in parallel, and readers
  are never blocked by annotation or fsync.
* **Hash-partitioned shards** — with ``shards=N`` the corpus is split
  across N :class:`~repro.indexing.koko_index.KokoIndexSet` partitions
  (stable hash of ``doc_id``, see
  :class:`~repro.indexing.sharding.ShardedIndexSet`).  Every shard has its
  own corpus slice, engine and readers-writer lock, so ingesting a
  document write-locks **one** shard — queries keep reading the other
  N−1 concurrently.
* **Parallel fan-out** — a query executes the stage pipeline per shard on
  a thread pool and the per-shard results are merged deterministically
  (:func:`~repro.koko.results.merge_results`): stable tuple order,
  summed :class:`~repro.koko.results.StageTimings`.
* **Plan caching** — each distinct query string is parsed and normalised
  once (:class:`~repro.service.cache.PlanCache`).
* **Result caching with per-shard generation stamps** — full query results
  are kept in an LRU stamped with the vector of per-shard generations; in
  addition each shard's partial result is cached under that shard's own
  generation, so ingesting into shard *k* invalidates only shard *k*'s
  work — a repeat query re-executes one shard and reuses the other N−1
  cached partials.
* **Durability with group commit** — constructed with ``storage_dir`` (or
  via :meth:`KokoService.open`), every ``add``/``remove`` is appended to a
  CRC-framed write-ahead log *before* it is applied; concurrent appends
  coalesce into shared fsyncs (one disk flush commits a whole batch — see
  :mod:`repro.persistence.wal`), tunable with ``sync_interval``.  A
  background checkpoint thread folds the log into versioned snapshots.
  Reopening the directory restores the latest valid snapshot and replays
  the WAL tail — tolerating a torn final record — so the service restarts
  warm with identical query results and zero re-annotation.
* **Async front end** — :meth:`aquery`, :meth:`aadd_document`,
  :meth:`aremove_document` and :meth:`aquery_batch` wrap the blocking
  calls in ``asyncio`` futures driven by a dedicated thread pool, so an
  event-loop application can serve heavy mixed read/write traffic without
  blocking its loop.
* **Concurrency** — any number of queries evaluate in parallel under the
  per-shard read locks; :meth:`query_batch` fans a batch out over a thread
  pool, preserving per-query timings.  Checkpoints hold per-shard *read*
  locks only, so snapshotting never stalls readers.
* **Observability** — :class:`~repro.service.stats.ServiceStats` tracks
  cache hit rates, ingest throughput, p50/p95 query latency, a per-shard
  breakdown, and durability counters (WAL appends, group-commit batch
  sizes and fsyncs saved, checkpoints, recovery) — all backed by one
  :class:`~repro.observability.metrics.MetricsRegistry` (``service.metrics``)
  with Prometheus text / JSON exposition.  Query and ingest executions are
  traced into :class:`~repro.observability.tracing.Span` trees —
  deterministically sampled at ``trace_sample_rate``, or on demand via
  ``query(..., explain=True)`` which returns an EXPLAIN ANALYZE-style
  report.  Operations slower than ``slow_query_ms`` / ``slow_ingest_ms``
  land as structured entries in a slow-op ring buffer
  (:meth:`~KokoService.recent_slow_ops`, optional JSON-lines file sink).

Lock hierarchy (see ``docs/ARCHITECTURE.md`` for the full map)::

    meta lock (+ condition)   — sid reservation, doc-id claims, routing,
      │                         checkpoint drain barrier
      ├─ per-shard RW locks   — readers share, the splice of one ingest
      │                         write-locks exactly one shard
      └─ WAL internal locks   — frame append mutex + group-commit condvar

    The meta lock is never held while annotating, fsyncing or executing
    queries: adds *and* removes follow the claim → log-off-lock → apply
    shape, so no group commit (including any ``sync_interval`` linger)
    ever happens under the meta lock.  Only ``add_annotated_document``
    still appends under it (it has no off-lock work to pipeline), which is
    safe because the WAL's own locks are leaves of the hierarchy.

Consistency note: a result served from the cache always corresponds to one
vector of shard generations.  An uncached query that overlaps an in-flight
ingest may observe the new document on its shard while other shards are
read earlier — the usual read-committed view of a partitioned store.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
import time
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from ..embeddings.expansion import DescriptorExpander
from ..embeddings.vectors import VectorStore
from ..errors import DeadlineExceeded, PersistenceError, ServiceError
from ..indexing.koko_index import IndexStatistics, KokoIndexSet
from ..indexing.sharding import ShardedIndexSet
from ..koko.ast import KokoQuery
from ..koko.engine import CompiledQuery, KokoEngine, compile_query
from ..koko.results import KokoResult, merge_results
from ..nlp.pipeline import Pipeline
from ..nlp.types import Corpus, Document
from ..observability.heat import ShardHeatAccumulator, ShardHeatReport
from ..observability.metrics import MetricsRegistry
from ..observability.slowlog import SlowOpLog
from ..observability.tracestore import TraceStore
from ..observability.tracing import ExplainedResult, Span, TraceContext, Tracer
from ..persistence import (
    OP_ADD,
    OP_REMOVE,
    CheckpointPolicy,
    CheckpointScheduler,
    CommitTicket,
    RecoveryManager,
    SnapshotState,
    StorageLayout,
    WalPosition,
    WalRecord,
    WriteAheadLog,
    write_snapshot,
)
from .cache import PlanCache, ResultCache
from .locks import ReadWriteLock
from .stats import ServiceStats

__all__ = ["IngestAck", "KokoService", "ShardedKokoService"]


@dataclass
class IngestAck:
    """The pipelined-ack return of ``add_document(wait_durable=False)``.

    The document is already spliced and visible to queries; the *commit
    future* — durability — is the attached :class:`CommitTicket`.  A crash
    before :meth:`wait_durable` returns may lose the operation (it is in
    WAL order but possibly not yet fsynced); everything the default
    ``wait_durable=True`` path promises is restored by waiting.
    """

    document: Document
    ticket: CommitTicket | None  # None on a memory-only service

    @property
    def durable(self) -> bool:
        """True once the logged record is covered by an fsync (no blocking)."""
        return self.ticket is None or self.ticket.durable

    def wait_durable(self) -> Document:
        """Block until the ingest is durable; returns the document."""
        if self.ticket is not None:
            self.ticket.wait()
        return self.document


# ----------------------------------------------------------------------
# process-pool annotation workers (module level so they pickle)
# ----------------------------------------------------------------------
_WORKER_PIPELINE: Pipeline | None = None


def _init_annotation_worker(pipeline: Pipeline) -> None:
    """Install the service's pipeline in a freshly forked/spawned worker."""
    global _WORKER_PIPELINE
    _WORKER_PIPELINE = pipeline


def _annotate_in_worker(text: str, doc_id: str, first_sid: int) -> Document:
    """Annotate one document inside an annotation-pool worker process."""
    assert _WORKER_PIPELINE is not None, "annotation worker not initialised"
    return _WORKER_PIPELINE.annotate(text, doc_id=doc_id, first_sid=first_sid)


def _warm_annotation_worker() -> None:
    """No-op task submitted at startup to force worker spawning."""
    return None


def _estimate_document_bytes(document: Document) -> int:
    """Approximate payload bytes a document splices into its shard.

    The raw text's UTF-8 length when the document carries its text
    (heat accounting wants payload scale, not exact frame size); a
    token-count estimate otherwise.
    """
    text = getattr(document, "text", "")
    if text:
        return len(text.encode("utf-8"))
    return document.num_tokens * 8


class _Shard:
    """One partition: its own corpus slice, index set, engine and RW lock."""

    def __init__(
        self, shard_id: int, name: str, indexes: KokoIndexSet, engine_kwargs: dict
    ) -> None:
        self.shard_id = shard_id
        self.corpus = Corpus(name=name)
        self.indexes = indexes
        self.engine = KokoEngine(self.corpus, indexes=indexes, **engine_kwargs)
        self.lock = ReadWriteLock()
        self.documents: dict[str, Document] = {}

    def splice(self, document: Document) -> None:
        """Wire one annotated document into this shard (write lock held)."""
        self.corpus.documents.append(document)
        self.documents[document.doc_id] = document
        self.indexes.add_document(document)
        self.engine.register_document(document)

    def unsplice(self, document: Document) -> None:
        """Un-wire one document from this shard (write lock held)."""
        self.corpus.documents.remove(document)
        del self.documents[document.doc_id]
        self.indexes.remove_document(document)
        self.engine.unregister_document(document)

    def adopt(self, documents: list[Document]) -> None:
        """Attach already-indexed documents (snapshot restore; no index add)."""
        for document in documents:
            self.corpus.documents.append(document)
            self.documents[document.doc_id] = document
            self.engine.register_document(document)


class KokoService:
    """A mutable-corpus, multi-query, optionally sharded and durable server.

    Results returned by :meth:`query` may be shared cache entries — treat
    them as read-only.

    Parameters
    ----------
    pipeline:
        NLP pipeline used to annotate ingested text (default rule-based).
        A custom pipeline must provide ``annotate(text, doc_id,
        first_sid)`` **and** a ``tokenizer.split_sentences(text)`` whose
        count bounds the sentences ``annotate`` will produce — the staged
        ingest sizes its sid reservation with it (subclassing
        :class:`~repro.nlp.pipeline.Pipeline` satisfies both).  With
        ``annotation_processes=True`` the pipeline must also be picklable
        (the default rule-based one is).
    name:
        Name of the service's corpus (when reopening a durable directory,
        the persisted name wins).
    shards:
        Number of hash partitions.  ``None`` (the default) means one shard,
        or — when ``storage_dir`` holds an existing service — whatever
        shard count was persisted.  An explicit value that contradicts a
        recovered snapshot raises :class:`ServiceError`.
    plan_cache_size, result_cache_size:
        LRU capacities of the two read-side caches.
    result_cache_max_entry_bytes:
        Cost-aware result-cache admission: results whose estimated size
        (:meth:`~repro.koko.results.KokoResult.approximate_bytes`)
        exceeds this bound are never cached — one giant result would
        evict many small reusable entries.  Applies to the full-result
        cache and every per-shard partial cache; refusals are counted in
        ``stats.result_cache_admission_skips`` and the per-shard
        ``admission_skips`` breakdown.  ``None`` (default) admits any
        size.
    max_workers:
        Thread-pool width used by :meth:`query_batch` and by the async
        front end (:meth:`aquery` et al.).
    annotation_workers:
        Size of the annotation pool the staged ingest path uses to run NLP
        annotation off-lock.  ``None`` (default) annotates inline in the
        calling thread — writers still annotate outside every lock, so
        multi-threaded callers already overlap annotation with WAL fsyncs
        and other shards' splices.
    annotation_processes:
        With ``annotation_workers`` set, use a **process** pool instead of
        a thread pool — genuine multi-core annotation (the pure-Python
        pipeline is GIL-bound in threads).  Documents travel back pickled,
        exactly like WAL records.  Workers start via forkserver/spawn
        (never fork — the service runs threads), so the usual
        :mod:`multiprocessing` rule applies: the program's ``__main__``
        module must be importable (scripts and pytest are; a bare
        REPL/stdin program is not).
    storage_dir:
        Directory for the durability subsystem (snapshots + write-ahead
        log).  ``None`` (the default) keeps the service memory-only.  An
        existing directory is recovered: latest valid snapshot, then WAL
        tail replay — see :mod:`repro.persistence`.
    checkpoint_policy:
        When the background thread folds the WAL into a fresh snapshot
        (default: 256 ops / 8 MiB / 300 s, whichever first).  Use
        ``CheckpointPolicy.disabled()`` for explicit :meth:`checkpoint`
        calls only.
    max_inflight_ingest_bytes:
        Admission bound on the staged write path: the total text bytes of
        documents that have claimed an ingest slot but not yet committed
        (i.e. are annotating, logging or splicing).  A claim that would
        exceed the bound **blocks** until in-flight ingests drain — a
        runaway producer back-pressures instead of exhausting memory.  A
        single document larger than the bound is still admitted (alone),
        so no input can deadlock the pipeline.  ``None`` (default) admits
        unconditionally.  Waits are counted in
        ``stats.ingest_backpressure_waits``.
    wal_sync:
        fsync the WAL on every logged operation (default True).  Appends
        from concurrent writers share fsyncs via group commit.
    sync_interval:
        Group-commit linger, in seconds: how long the WAL's sync leader
        waits before flushing so more concurrent appends can join the
        batch.  ``0.0`` (default) flushes immediately — batching then
        happens only while a flush is already in flight.  Raising it
        trades single-write commit latency for fewer, larger fsyncs under
        concurrent load.
    bootstrap_snapshot:
        A :class:`~repro.persistence.SnapshotState` to adopt as the initial
        in-memory state — the replication bootstrap path: a follower
        receives a primary's snapshot over the wire and constructs its
        service from it directly, with no storage directory of its own.
        Mutually exclusive with ``storage_dir``; the snapshot's shard
        count and name win exactly as a recovered on-disk snapshot's
        would.
    trace_sample_rate:
        Fraction of queries/ingests traced into a full span tree even
        without ``explain=True`` — deterministic accumulator sampling
        (0.01 = every 100th operation), so production always has recent
        traces to attribute latency with.  ``0.0`` disables sampling
        entirely: the untraced hot path allocates no spans at all.
        Callers that already carry a
        :class:`~repro.observability.tracing.TraceContext` (the RPC
        server continuing a client's trace) bypass local sampling — the
        propagated ``sampled`` flag wins either way.
    trace_store_capacity:
        Number of distinct recent traces the per-node
        :class:`~repro.observability.tracestore.TraceStore` ring keeps
        (served at ``/traces`` by the telemetry plane).
    slow_query_ms, slow_ingest_ms:
        Wall-clock thresholds above which a query (respectively an
        ingest or removal) emits one structured entry into the slow-op
        log.  ``None`` disables that kind of slow-op entry.
    slow_op_log_path:
        Optional file the slow-op log also appends to, one JSON line per
        entry (the in-memory ring behind :meth:`recent_slow_ops` is
        always active).
    slow_op_log_capacity:
        Size of the slow-op ring buffer (default 256 entries).
    expander, vectors, dictionaries, use_gsp, use_default_vectors:
        Forwarded to every shard's :class:`~repro.koko.engine.KokoEngine`.
    """

    def __init__(
        self,
        pipeline: Pipeline | None = None,
        name: str = "service",
        shards: int | None = None,
        plan_cache_size: int = 256,
        result_cache_size: int = 256,
        result_cache_max_entry_bytes: int | None = None,
        max_workers: int = 4,
        annotation_workers: int | None = None,
        annotation_processes: bool = False,
        max_inflight_ingest_bytes: int | None = None,
        storage_dir: str | Path | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
        wal_sync: bool = True,
        sync_interval: float = 0.0,
        checkpoint_poll_seconds: float = 0.2,
        bootstrap_snapshot: SnapshotState | None = None,
        trace_sample_rate: float = 0.01,
        trace_store_capacity: int = 128,
        slow_query_ms: float | None = 250.0,
        slow_ingest_ms: float | None = 1000.0,
        slow_op_log_path: str | Path | None = None,
        slow_op_log_capacity: int = 256,
        slow_op_log_max_bytes: int | None = 16 * 1024 * 1024,
        expander: DescriptorExpander | None = None,
        vectors: VectorStore | None = None,
        dictionaries: dict[str, set[str]] | None = None,
        use_gsp: bool = True,
        use_default_vectors: bool = True,
    ) -> None:
        if shards is not None and shards <= 0:
            raise ServiceError(f"shards must be positive, got {shards}")
        if result_cache_max_entry_bytes is not None and result_cache_max_entry_bytes <= 0:
            raise ServiceError(
                f"result_cache_max_entry_bytes must be positive, got "
                f"{result_cache_max_entry_bytes}"
            )
        if max_inflight_ingest_bytes is not None and max_inflight_ingest_bytes <= 0:
            raise ServiceError(
                f"max_inflight_ingest_bytes must be positive, got "
                f"{max_inflight_ingest_bytes}"
            )
        if bootstrap_snapshot is not None and storage_dir is not None:
            raise ServiceError(
                "bootstrap_snapshot and storage_dir are mutually exclusive "
                "(a shipped snapshot bootstraps a memory-only follower)"
            )
        if not 0.0 <= trace_sample_rate <= 1.0:
            raise ServiceError(
                f"trace_sample_rate must be in [0, 1], got {trace_sample_rate}"
            )
        for label, threshold in (
            ("slow_query_ms", slow_query_ms),
            ("slow_ingest_ms", slow_ingest_ms),
        ):
            if threshold is not None and threshold < 0:
                raise ServiceError(f"{label} must be >= 0 or None, got {threshold}")
        self.pipeline = pipeline or Pipeline()

        # ---- durability: recover any existing on-disk state first, since
        # the persisted shard count and name define the topology we build.
        recovery_started = time.perf_counter()
        self._layout: StorageLayout | None = None
        self._wal: WriteAheadLog | None = None
        self._checkpoint_scheduler: CheckpointScheduler | None = None
        self._checkpoint_policy = checkpoint_policy or CheckpointPolicy()
        self._checkpoint_lock = threading.Lock()
        self._checkpoint_id = 0
        self._ops_since_checkpoint = 0
        self._last_checkpoint_monotonic = time.monotonic()
        self._closed = False
        self._wal_sync = wal_sync
        self._wal_sync_interval = sync_interval
        recovered = None
        if storage_dir is not None:
            self._layout = StorageLayout(storage_dir)
            self._layout.initialise()
            recovered = RecoveryManager(self._layout).recover()
            if recovered.snapshot is not None:
                if shards is not None and shards != recovered.snapshot.num_shards:
                    raise ServiceError(
                        f"storage at {storage_dir} holds {recovered.snapshot.num_shards} "
                        f"shard(s) but {shards} were requested"
                    )
                shards = recovered.snapshot.num_shards
                name = recovered.snapshot.name
        elif bootstrap_snapshot is not None:
            if shards is not None and shards != bootstrap_snapshot.num_shards:
                raise ServiceError(
                    f"bootstrap snapshot holds {bootstrap_snapshot.num_shards} "
                    f"shard(s) but {shards} were requested"
                )
            shards = bootstrap_snapshot.num_shards
            name = bootstrap_snapshot.name

        shards = shards if shards is not None else 1
        self.name = name
        if vectors is None and use_default_vectors:
            from ..embeddings.pretrained import build_default_vectors

            vectors = build_default_vectors()  # memoized; shared by all shards
        engine_kwargs = dict(
            expander=expander,
            vectors=vectors,
            dictionaries=dictionaries,
            use_gsp=use_gsp,
            use_default_vectors=use_default_vectors,
        )
        self._index_set = ShardedIndexSet(shards)
        if recovered is not None and recovered.snapshot is not None:
            self._index_set.shards = list(recovered.snapshot.index_sets)
        elif bootstrap_snapshot is not None:
            self._index_set.shards = list(bootstrap_snapshot.index_sets)
        self._shards = [
            _Shard(i, f"{name}/shard{i}", self._index_set.shards[i], engine_kwargs)
            for i in range(shards)
        ]
        self.max_workers = max_workers
        self.stats = ServiceStats()
        # tracing + slow-op log share the stats registry, so one
        # render_text() exposes the whole service
        self._tracer = Tracer(trace_sample_rate)
        self._trace_store = TraceStore(trace_store_capacity)
        # advisory: how many WAL records carried a trace context — the
        # shipper only pays per-record payload decodes once this is > 0
        self._wal_traces_logged = 0
        self._slow_query_ms = slow_query_ms
        self._slow_ingest_ms = slow_ingest_ms
        self._slow_log = SlowOpLog(
            capacity=slow_op_log_capacity,
            path=str(slow_op_log_path) if slow_op_log_path is not None else None,
            max_file_bytes=slow_op_log_max_bytes,
        )
        # per-shard heat signals (queries, skip candidates, splice bytes,
        # EWMA stage latency) — the split-victim-selection substrate;
        # mirrored into the same registry for /metrics scrapes
        self._heat = ShardHeatAccumulator(shards, registry=self.stats.registry)
        self._traces_sampled = self.stats.registry.counter(
            "koko_traces_sampled_total", "Operations traced into a span tree."
        )
        self._slow_ops = self.stats.registry.counter(
            "koko_slow_ops_total",
            "Operations that crossed their slow-op threshold.",
            labelnames=("kind",),
        )
        self._plan_cache = PlanCache(plan_cache_size)
        self._result_cache: ResultCache[KokoResult] = ResultCache(
            result_cache_size,
            on_evict=self.stats.record_result_cache_eviction,
            max_entry_bytes=result_cache_max_entry_bytes,
            entry_bytes=KokoResult.approximate_bytes,
            on_admission_skip=self.stats.record_result_cache_admission_skip,
        )
        # per-(query, shard) partials, one cache per shard so each shard's
        # own generation stamps its entries and hit/miss/eviction counters
        # attribute cleanly — the unit of reuse that survives other shards'
        # ingests, and the raw data of the cache-sizing question
        self._shard_result_caches: list[ResultCache[KokoResult]] = [
            ResultCache(
                result_cache_size,
                on_evict=partial(self._record_shard_cache_eviction, shard_id),
                max_entry_bytes=result_cache_max_entry_bytes,
                entry_bytes=KokoResult.approximate_bytes,
                on_admission_skip=partial(
                    self.stats.record_shard_cache_admission_skip, shard_id
                ),
            )
            for shard_id in range(shards)
        ]
        # Serialises the *metadata* of corpus mutation — sid reservation,
        # doc-id claims, routing, generation finalisation — without ever
        # blocking the per-shard read side.  Annotation, WAL fsync (add
        # path) and posting splices all run outside it.  The condition
        # carries the ingest drain barrier checkpoints use.
        self._meta_lock = threading.Lock()
        self._meta_cond = threading.Condition(self._meta_lock)
        self._doc_shard: dict[str, int] = {}
        self._pending_docs: set[str] = set()
        self._pending_removes: set[str] = set()
        self._sid_reservations: dict[int, int] = {}  # base sid -> reserved count
        self._inflight_ingests = 0
        self._ingest_barrier = 0
        # admission control: text bytes of claimed-but-uncommitted ingests
        self._max_inflight_ingest_bytes = max_inflight_ingest_bytes
        self._inflight_ingest_bytes = 0
        self._claimed_ingest_bytes: dict[str, int] = {}  # doc id -> admitted bytes
        self._ingest_admission: deque = deque()  # FIFO claim tickets
        # WAL retention pins (log shipping): callables returning the lowest
        # segment id a subscriber still needs, or None when idle
        self._wal_pins: list = []
        self._next_sid = 0
        self._generations = [0] * shards
        self._shard_pool: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(max_workers=shards, thread_name_prefix="koko-shard")
            if shards > 1
            else None
        )
        # Async front end: asyncio wrappers run the blocking calls here so
        # the event loop never blocks on annotation, fsyncs or execution.
        self._frontend_pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="koko-frontend"
        )
        # Optional annotation pool for the off-lock annotation stage.
        self._annotation_processes = annotation_processes
        self._annotation_pool: Executor | None = None
        if annotation_workers is not None and annotation_workers > 0:
            if annotation_processes:
                import multiprocessing

                # never fork: the service already runs threads (checkpoint
                # scheduler, pools) and forking a multithreaded process can
                # deadlock the children.  forkserver/spawn start workers
                # from a clean process; everything they need is pickled
                # (the pipeline via the initializer, module-level task fns).
                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context(
                    "forkserver" if "forkserver" in methods else "spawn"
                )
                self._annotation_pool = ProcessPoolExecutor(
                    max_workers=annotation_workers,
                    mp_context=context,
                    initializer=_init_annotation_worker,
                    initargs=(self.pipeline,),
                )
                # Worker processes spawn lazily, one per submit that finds
                # no idle worker — which would ramp the pool up under the
                # first real burst.  Kick off every worker now (the warm
                # tasks return immediately; initialisation proceeds in the
                # background without blocking construction).
                for _ in range(annotation_workers):
                    self._annotation_pool.submit(_warm_annotation_worker)
            else:
                self._annotation_pool = ThreadPoolExecutor(
                    max_workers=annotation_workers, thread_name_prefix="koko-annotate"
                )

        if recovered is not None:
            self._finish_recovery(recovered)
            self.stats.record_recovery(
                time.perf_counter() - recovery_started,
                documents=len(self._doc_shard),
                replayed=len(recovered.operations),
                torn_tail=recovered.torn_tail,
            )
            self._checkpoint_scheduler = CheckpointScheduler(
                self._maybe_checkpoint, poll_seconds=checkpoint_poll_seconds
            )
            self._checkpoint_scheduler.start()
        elif bootstrap_snapshot is not None:
            self._adopt_snapshot(bootstrap_snapshot)
            self.stats.record_recovery(
                time.perf_counter() - recovery_started,
                documents=len(self._doc_shard),
                replayed=0,
                torn_tail=False,
            )

    # ------------------------------------------------------------------
    # durability lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, storage_dir: str | Path, **kwargs) -> "KokoService":
        """Open (or create) a durable service rooted at *storage_dir*.

        Sugar for ``KokoService(storage_dir=storage_dir, **kwargs)``: an
        existing directory restarts warm — latest valid snapshot plus WAL
        tail, zero re-annotation — and a missing one is initialised.
        """
        return cls(storage_dir=storage_dir, **kwargs)

    def _adopt_snapshot(self, snapshot: SnapshotState) -> None:
        """Attach a restored snapshot's documents and counters to the shards.

        Shared by on-disk recovery and the replication bootstrap: the
        index sets were already installed at construction; this wires the
        documents, routing table, sid counter and generation stamps.
        """
        for shard_id, shard in enumerate(self._shards):
            documents = snapshot.documents_by_shard[shard_id]
            shard.adopt(documents)
            for document in documents:
                self._doc_shard[document.doc_id] = shard_id
        self._next_sid = snapshot.next_sid
        self._generations = list(snapshot.generations)
        self._checkpoint_id = snapshot.checkpoint_id

    def _finish_recovery(self, recovered) -> None:
        """Adopt the snapshot, replay the WAL tail, and open the live WAL."""
        assert self._layout is not None
        if recovered.snapshot is not None:
            self._adopt_snapshot(recovered.snapshot)
        for record in recovered.operations:
            if record.op == OP_ADD:
                if record.document is None or record.doc_id in self._doc_shard:
                    raise PersistenceError(
                        f"WAL replay: bad add record for {record.doc_id!r}"
                    )
                self._apply_add_locked(record.document)
            elif record.op == OP_REMOVE:
                if record.doc_id not in self._doc_shard:
                    raise PersistenceError(
                        f"WAL replay: remove of unknown document {record.doc_id!r}"
                    )
                self._apply_remove_locked(record.doc_id)
            else:  # pragma: no cover - defensive
                raise PersistenceError(f"WAL replay: unknown op {record.op!r}")
        self._wal = WriteAheadLog(
            self._layout,
            recovered.active_segment_id,
            sync=self._wal_sync,
            truncate_to=recovered.active_segment_valid_bytes,
            sync_interval=self._wal_sync_interval,
            on_fsync=self.stats.record_wal_fsync,
        )
        # Replayed operations are only durable in the WAL tail; fold them
        # into a checkpoint so the next restart is one load.  A directory
        # with no snapshot and nothing to replay (brand new, or a crash
        # before the first bootstrap completed) gets a bootstrap snapshot
        # that pins the shard topology.
        if recovered.operations:
            self._ops_since_checkpoint = len(recovered.operations)
            self.checkpoint()
        elif recovered.snapshot is None:
            self._write_bootstrap_snapshot()

    def _write_bootstrap_snapshot(self) -> None:
        """Persist the empty topology (shard count, name) as checkpoint 0."""
        assert self._layout is not None
        state = self._capture_snapshot_state(checkpoint_id=0)
        write_snapshot(self._layout, state)
        self._layout.write_current(0)

    def _capture_snapshot_state(self, checkpoint_id: int) -> SnapshotState:
        """Capture every shard under its read lock (readers unaffected)."""
        index_arrays: list[dict] = []
        documents_by_shard: list[list[Document]] = []
        build_seconds: list[float] = []
        for shard in self._shards:
            with shard.lock.read_locked():
                index_arrays.append(shard.indexes.to_arrays())
                documents_by_shard.append(list(shard.corpus.documents))
                build_seconds.append(shard.indexes.build_seconds)
        return SnapshotState(
            checkpoint_id=checkpoint_id,
            name=self.name,
            num_shards=len(self._shards),
            next_sid=self._next_sid,
            generations=list(self._generations),
            documents_by_shard=documents_by_shard,
            build_seconds_by_shard=build_seconds,
            index_arrays=index_arrays,
        )

    def checkpoint(self) -> int | None:
        """Fold the write-ahead log into a fresh snapshot.

        Raises the ingest drain barrier (staged ingests that already
        reserved ids finish; new claims wait), rotates the WAL, captures
        every shard under its *read* lock (readers keep running), writes
        the versioned snapshot, atomically repoints ``CURRENT`` and prunes
        superseded snapshots and segments.  Returns the new checkpoint id,
        or ``None`` when nothing was logged since the last checkpoint.

        Raises :class:`ServiceError` on a memory-only service.
        """
        if self._wal is None or self._layout is None:
            raise ServiceError("service has no storage_dir to checkpoint into")
        started = time.perf_counter()
        # the in-progress gauge brackets the whole attempt (including the
        # drain wait), so a wedged checkpointer is visible from outside
        self.stats.record_checkpoint_started()
        try:
            with self._checkpoint_lock:
                with self._meta_cond:
                    # Drain: a staged ingest may have appended to the WAL but
                    # not yet spliced; rotating under it would strand a logged
                    # operation in a segment the checkpoint claims to cover.
                    self._ingest_barrier += 1
                    try:
                        while self._inflight_ingests:
                            self._meta_cond.wait()
                        if self._ops_since_checkpoint == 0:
                            return None
                        sealed = self._wal.rotate()
                        state = self._capture_snapshot_state(checkpoint_id=sealed)
                        self._ops_since_checkpoint = 0
                        self._last_checkpoint_monotonic = time.monotonic()
                    finally:
                        self._ingest_barrier -= 1
                        self._meta_cond.notify_all()
                # File writes happen outside the meta lock: the captured state
                # is immutable (column arrays are replaced, never written in
                # place; documents are never mutated after ingest), so
                # writers proceed while we fsync.
                write_snapshot(self._layout, state)
                self._layout.write_current(sealed)
                self._layout.prune(sealed, wal_keep_from=self._wal_pin_floor())
                self._checkpoint_id = sealed
            self.stats.record_checkpoint(time.perf_counter() - started, sealed)
            return sealed
        finally:
            self.stats.record_checkpoint_finished()

    def _maybe_checkpoint(self) -> None:
        """Background heartbeat: checkpoint when the policy says it is due."""
        if self._closed or self._wal is None:
            return
        elapsed = time.monotonic() - self._last_checkpoint_monotonic
        if self._checkpoint_policy.due(
            self._ops_since_checkpoint, self._wal.active_bytes, elapsed
        ):
            try:
                self.checkpoint()
            except Exception as exc:
                # The WAL stays the source of durability; surface the
                # failure in the stats instead of dying silently (the next
                # heartbeat, or an explicit checkpoint(), retries).
                self.stats.record_checkpoint_failure(repr(exc))

    @property
    def storage_dir(self) -> Path | None:
        """Root of the durability layout, or None for a memory-only service."""
        return self._layout.root if self._layout is not None else None

    # ------------------------------------------------------------------
    # replication hooks (see repro.replication)
    # ------------------------------------------------------------------
    def wal_position(self) -> WalPosition | None:
        """The durable end of the write-ahead log, or None when memory-only.

        Monotonic across rotations, so it works as a *read-your-writes*
        token: a position captured after :meth:`add_document` returns
        covers that document (the record was fsynced before the return),
        and a replica whose applied position is ``>=`` the token has the
        write.
        """
        wal = self._wal
        return wal.durable_position() if wal is not None else None

    def register_wal_pin(self, pin) -> None:
        """Register a WAL retention pin (a log-shipping subscriber).

        *pin* is a callable returning the lowest WAL segment id the
        subscriber still needs, or ``None`` when it needs nothing.
        Checkpoints keep every segment at or above the lowest pinned id
        when pruning, so a follower tailing segment *N* never has it
        folded away mid-read.
        """
        with self._meta_lock:
            self._wal_pins.append(pin)

    def unregister_wal_pin(self, pin) -> None:
        """Drop a previously registered retention pin (idempotent)."""
        with self._meta_lock:
            if pin in self._wal_pins:
                self._wal_pins.remove(pin)

    def _wal_pin_floor(self) -> int | None:
        """The lowest WAL segment id any registered pin still needs."""
        with self._meta_lock:
            pins = list(self._wal_pins)
        floors = []
        for pin in pins:
            try:
                floor = pin()
            except Exception:  # pragma: no cover - defensive: a dying
                continue  # subscriber must not wedge checkpoints
            if floor is not None:
                floors.append(floor)
        return min(floors, default=None)

    def apply_replicated(self, record: WalRecord) -> Document:
        """Apply one shipped WAL record to this service (replication follower).

        The replica-side splice path: the record is applied exactly as WAL
        replay would — same routing, same sid accounting, same generation
        bump — but nothing is logged locally (the primary's log is the
        source of truth).  Returns the added or removed document.  Raises
        :class:`PersistenceError` on a record inconsistent with the
        current state (duplicate add, remove of an unknown id), which on a
        follower means the stream diverged and a re-bootstrap is needed.
        """
        started = time.perf_counter()
        with self._meta_lock:
            self._ensure_open()
            if record.op == OP_ADD:
                if record.document is None or record.doc_id in self._doc_shard:
                    raise PersistenceError(
                        f"replicated add of {record.doc_id!r} is inconsistent "
                        f"with the follower state"
                    )
                document = record.document
                shard = self._apply_add_locked(document)
                shard_id, removed = shard.shard_id, False
            elif record.op == OP_REMOVE:
                if record.doc_id not in self._doc_shard:
                    raise PersistenceError(
                        f"replicated remove of unknown document {record.doc_id!r}"
                    )
                shard_id, document = self._apply_remove_locked(record.doc_id)
                removed = True
            else:
                raise PersistenceError(f"replicated record has unknown op {record.op!r}")
        elapsed = time.perf_counter() - started
        self.stats.record_ingest(
            elapsed,
            len(document),
            document.num_tokens,
            removed=removed,
            shard=shard_id,
        )
        self._heat.record_splice(
            shard_id, _estimate_document_bytes(document), elapsed
        )
        return document

    @property
    def checkpoint_id(self) -> int:
        """Id of the latest durable checkpoint (0 until the first one)."""
        return self._checkpoint_id

    # ------------------------------------------------------------------
    # ingestion (write side) — the staged concurrent pipeline
    # ------------------------------------------------------------------
    def add_document(
        self,
        text: str,
        doc_id: str | None = None,
        first_sid: int | None = None,
        wait_durable: bool = True,
        trace_context: TraceContext | None = None,
        client_id: str | None = None,
    ) -> Document | IngestAck:
        """Annotate *text* and fold it into its shard's corpus and indexes.

        The staged pipeline (see the module docstring): the meta lock is
        held only to claim the document id and reserve a sentence-id range
        (sized by a cheap sentence split); NLP annotation runs outside any
        lock — inline, or on the annotation pool when the service was
        built with ``annotation_workers``; the WAL append (durable via
        group commit) also runs off-lock; finally the postings splice
        write-locks exactly one shard.  Writers whose documents route to
        different shards therefore proceed in parallel end to end.

        Parameters
        ----------
        text:
            Raw document text.
        doc_id:
            Explicit document id; ``None`` assigns a fresh ``docN`` id.
            Ingesting an id that is live (or currently being ingested)
            raises :class:`ServiceError`.
        first_sid:
            Explicit first sentence id, for callers that pre-plan sid
            assignment (e.g. to make concurrent ingest bit-identical to a
            serial one).  Either a base previously handed out by
            :meth:`reserve_sids` (ranges may then be consumed in any
            order by any writer thread), or a fresh value ≥ the current
            :meth:`next_sid` (the counter advances past this document's
            range).  Anything else raises :class:`ServiceError`.
            ``None`` (default) reserves the next free range.
        trace_context:
            A propagated :class:`~repro.observability.tracing.TraceContext`
            (the RPC server continuing a client's trace).  Its ``sampled``
            flag replaces the local sampling decision; when sampled, the
            ingest's span tree joins that trace and the WAL record carries
            the context so shipper/replica spans join it too.
        client_id:
            The caller's identity (RPC admission id), recorded on slow-op
            entries for cross-linking.

        Durability: on a durable service the document is in the WAL —
        fsynced, group-committed — *before* it becomes visible to queries;
        when ``add_document`` returns, the operation survives a crash.

        ``wait_durable=False`` selects the **pipelined-ack** path: the WAL
        append is buffered (log order fixed) but the call returns after
        the splice without waiting for the fsync, handing back an
        :class:`IngestAck` whose ticket is the commit future.  The
        document is visible immediately; a crash before the ticket is
        waited on (or a later group commit covers it) may lose the
        operation.

        Returns the annotated :class:`~repro.nlp.types.Document` — or the
        :class:`IngestAck` wrapping it when ``wait_durable=False``.
        """
        started = time.perf_counter()
        # Stage 0 (no lock): a cheap sentence split sizes the sid range to
        # reserve.  Empty sentences are skipped by annotation, so a
        # reservation is an upper bound — unused sids become gaps, which
        # the sid-keyed indexes tolerate by construction.
        # The text is split again inside annotate(): the reservation must
        # be sized before annotation runs, and re-using the same splitter
        # keeps the count an exact upper bound of the sids annotate() will
        # assign.
        reserve = len(self.pipeline.tokenizer.split_sentences(text))
        resolved_id, base_sid, consumed = self._claim_ingest(
            doc_id, reserve, first_sid, ingest_bytes=len(text.encode("utf-8"))
        )
        trace: Span | None = None
        frag: TraceContext | None = None
        sampled = (
            trace_context.sampled
            if trace_context is not None
            else self._tracer.should_sample()
        )
        if sampled:
            self._traces_sampled.inc()
            frag = (
                trace_context.child()
                if trace_context is not None
                else TraceContext.root()
            )
            trace = Span("ingest", doc_id=resolved_id, trace_id=frag.trace_id)
        logged = False
        frame_bytes = 0
        try:
            # Stage 1 (no lock): heavy NLP annotation.
            stage_started = time.perf_counter()
            document = self._annotate_off_lock(text, resolved_id, base_sid)
            annotate_s = time.perf_counter() - stage_started
            if trace is not None:
                trace.record("annotate", annotate_s, sentences=len(document))
            # Stage 2 (no lock): write-ahead logging; group commit batches
            # concurrent fsyncs.  Durable before visible — unless the
            # caller opted into pipelined acks, where the fsync wait moves
            # behind the returned ticket and the splice proceeds at once.
            wal_span = trace.child("wal") if trace is not None else None
            stage_started = time.perf_counter()
            record = WalRecord(
                op=OP_ADD, doc_id=resolved_id, document=document, trace=frag
            )
            ticket: CommitTicket | None = None
            if wait_durable:
                frame_bytes = self._log(record, trace=wal_span)
            else:
                frame_bytes, ticket = self._log_pipelined(record, trace=wal_span)
            wal_s = time.perf_counter() - stage_started
            if wal_span is not None:
                wal_span.annotate(frame_bytes=frame_bytes)
                wal_span.finish()
            logged = self._wal is not None
            # Stage 3 (one shard's write lock): splice postings.
            stage_started = time.perf_counter()
            shard = self._splice_into_shard(document)
            splice_s = time.perf_counter() - stage_started
            if trace is not None:
                trace.record("splice", splice_s, shard=shard.shard_id)
        except BaseException:
            self._abort_ingest(resolved_id, logged=logged, reservation=consumed)
            raise
        self._commit_ingest(resolved_id, shard.shard_id)
        elapsed = time.perf_counter() - started
        self.stats.record_ingest(
            elapsed, len(document), document.num_tokens, shard=shard.shard_id
        )
        self._heat.record_splice(
            shard.shard_id,
            frame_bytes or _estimate_document_bytes(document),
            splice_s,
        )
        if trace is not None:
            trace.annotate(shard=shard.shard_id, tokens=document.num_tokens)
            trace.finish()
            self._trace_store.record(
                frag,
                trace,
                parent_span_id=(
                    trace_context.span_id if trace_context is not None else None
                ),
                kind="ingest",
                node=self.name,
            )
        self._observe_slow_ingest(
            "ingest",
            elapsed,
            doc_id=resolved_id,
            shard=shard.shard_id,
            stages={"annotate": annotate_s, "wal": wal_s, "splice": splice_s},
            frame_bytes=frame_bytes,
            sentences=len(document),
            tokens=document.num_tokens,
            trace=trace,
            trace_id=frag.trace_id if frag is not None else None,
            client_id=client_id,
        )
        if not wait_durable:
            return IngestAck(document=document, ticket=ticket)
        return document

    def add_documents(
        self,
        texts: list[str],
        doc_ids: list[str | None] | None = None,
        batch_size: int = 64,
        wait_durable: bool = True,
    ) -> list[Document]:
        """Bulk ingest, amortising the claim/commit rounds and the fsync.

        Documents are processed in chunks of *batch_size*; each chunk pays
        **one** meta-lock claim round (ids resolved, sid ranges reserved,
        admission checked once for the chunk's total bytes), annotates
        off-lock, appends every record to the WAL with a **single** group
        commit covering the chunk, splices grouped per shard (one write
        lock acquisition per touched shard), and publishes with **one**
        commit round.  Ingesting N documents therefore does at most
        ``ceil(N / batch_size)`` claim and commit rounds instead of N.

        ``doc_ids`` (optional) must match *texts* in length; ``None``
        entries get fresh ids.  ``wait_durable=False`` skips the per-chunk
        fsync wait entirely — call :meth:`wait_durable` afterwards to make
        the whole load durable with a single flush.

        A failure mid-chunk rolls that chunk back (compensating WAL
        removes for logged records, claims released); previously completed
        chunks stay committed.  Returns the annotated documents in input
        order.
        """
        texts = list(texts)
        if doc_ids is not None:
            doc_ids = list(doc_ids)
            if len(doc_ids) != len(texts):
                raise ServiceError(
                    f"doc_ids length {len(doc_ids)} != texts length {len(texts)}"
                )
        if batch_size < 1:
            raise ServiceError(f"batch_size must be >= 1, got {batch_size}")
        documents: list[Document] = []
        for start in range(0, len(texts), batch_size):
            chunk = texts[start : start + batch_size]
            chunk_ids = (
                doc_ids[start : start + batch_size]
                if doc_ids is not None
                else [None] * len(chunk)
            )
            documents.extend(
                self._add_documents_chunk(chunk, chunk_ids, wait_durable)
            )
        return documents

    def _add_documents_chunk(
        self, texts: list[str], doc_ids: list[str | None], wait_durable: bool
    ) -> list[Document]:
        """Ingest one bulk chunk: one claim, one fsync, one commit round."""
        started = time.perf_counter()
        reserves = [
            len(self.pipeline.tokenizer.split_sentences(text)) for text in texts
        ]
        sizes = [len(text.encode("utf-8")) for text in texts]
        claims = self._claim_ingest_batch(doc_ids, reserves, sizes)
        logged_ids: list[str] = []
        try:
            documents = [
                self._annotate_off_lock(text, resolved_id, base_sid)
                for text, (resolved_id, base_sid) in zip(texts, claims)
            ]
            # WAL appends are buffered; one group commit at the end covers
            # the whole chunk (~1 fsync instead of len(texts)).
            ticket: CommitTicket | None = None
            frame_total = 0
            for document in documents:
                appended, doc_ticket = self._log_pipelined(
                    WalRecord(op=OP_ADD, doc_id=document.doc_id, document=document)
                )
                frame_total += appended
                if doc_ticket is not None:
                    logged_ids.append(document.doc_id)
                    ticket = doc_ticket
            if wait_durable and ticket is not None:
                ticket.wait()  # durable before visible, amortised
            # Splice grouped per shard: one write-lock round per shard.
            by_shard: dict[int, list[Document]] = {}
            for document in documents:
                shard_id = self._index_set.shard_id(document.doc_id)
                by_shard.setdefault(shard_id, []).append(document)
            assignments: list[tuple[str, int]] = []
            for shard_id in sorted(by_shard):
                shard = self._shards[shard_id]
                shard_docs = by_shard[shard_id]
                splice_started = time.perf_counter()
                with shard.lock.write_locked():
                    for document in shard_docs:
                        shard.splice(document)
                    # one bump per document keeps generation counters
                    # identical to a record-at-a-time replica apply
                    self._generations[shard_id] += len(shard_docs)
                self._heat.record_splice(
                    shard_id,
                    sum(_estimate_document_bytes(d) for d in shard_docs),
                    time.perf_counter() - splice_started,
                )
                assignments.extend(
                    (document.doc_id, shard_id) for document in shard_docs
                )
        except BaseException:
            self._abort_ingest_batch(claims, logged_ids)
            raise
        self._commit_ingest_batch(assignments)
        per_doc = (time.perf_counter() - started) / max(len(documents), 1)
        shard_of = dict(assignments)
        for document in documents:
            self.stats.record_ingest(
                per_doc,
                len(document),
                document.num_tokens,
                shard=shard_of[document.doc_id],
            )
        return documents

    def wait_durable(self) -> WalPosition | None:
        """Make every operation logged before this call durable.

        The flush side of the pipelined-ack / bulk-load paths: drives one
        group commit over the WAL's buffered tail and returns the durable
        end of the log (``None`` on a memory-only service, where there is
        nothing to flush).
        """
        self._ensure_open()
        if self._wal is None:
            return None
        return self._wal.flush_durable()

    def add_annotated_document(self, document: Document) -> Document:
        """Ingest an already-annotated document.

        The document's sentence ids must be fresh; documents annotated with
        ``first_sid=service.next_sid()`` (or produced by this service's own
        pipeline flow) satisfy that.  Runs entirely under the meta lock —
        there is no annotation stage to pipeline — so it serialises with
        other metadata operations but never blocks shard readers for
        longer than the splice itself.
        """
        started = time.perf_counter()
        with self._meta_lock:
            self._ensure_open()
            if document.doc_id in self._doc_shard or document.doc_id in self._pending_docs:
                raise ServiceError(f"document id {document.doc_id!r} already ingested")
            for sentence in document:
                if sentence.sid < self._next_sid:
                    raise ServiceError(
                        f"sentence id {sentence.sid} of document "
                        f"{document.doc_id!r} is not fresh (next sid is "
                        f"{self._next_sid})"
                    )
            self._log(WalRecord(op=OP_ADD, doc_id=document.doc_id, document=document))
            shard = self._apply_add_locked(document)
            if self._wal is not None:
                self._ops_since_checkpoint += 1
        self.stats.record_ingest(
            time.perf_counter() - started,
            len(document),
            document.num_tokens,
            shard=shard.shard_id,
        )
        self._heat.record_splice(shard.shard_id, _estimate_document_bytes(document))
        return document

    def remove_document(
        self,
        doc_id: str,
        trace_context: TraceContext | None = None,
        client_id: str | None = None,
    ) -> Document:
        """Un-index and drop one document; returns it.

        Staged exactly like :meth:`add_document`: the meta lock is held
        only to *claim* the removal (validate the id, mark it in flight so
        checkpoints drain it and conflicting operations are rejected); the
        WAL append — one group commit, including any ``sync_interval``
        linger — runs **off every lock**; the un-splice then write-locks
        only the target shard.  No fsync ever happens under the meta lock,
        so removals never stall unrelated metadata operations (claims,
        reservations, other commits).

        Removing a document that is mid-ingest, or already mid-removal,
        raises :class:`ServiceError`.  On a durable service the removal is
        WAL-logged (and fsynced) *before* it is applied — durable before
        invisible.
        """
        started = time.perf_counter()
        document, shard_id = self._claim_remove(doc_id)
        trace: Span | None = None
        frag: TraceContext | None = None
        sampled = (
            trace_context.sampled
            if trace_context is not None
            else self._tracer.should_sample()
        )
        if sampled:
            self._traces_sampled.inc()
            frag = (
                trace_context.child()
                if trace_context is not None
                else TraceContext.root()
            )
            trace = Span("remove", doc_id=doc_id, trace_id=frag.trace_id)
        logged = False
        frame_bytes = 0
        try:
            # Off-lock: group-committed WAL append (durable before applied).
            wal_span = trace.child("wal") if trace is not None else None
            stage_started = time.perf_counter()
            frame_bytes = self._log(
                WalRecord(op=OP_REMOVE, doc_id=doc_id, trace=frag), trace=wal_span
            )
            wal_s = time.perf_counter() - stage_started
            if wal_span is not None:
                wal_span.annotate(frame_bytes=frame_bytes)
                wal_span.finish()
            logged = self._wal is not None
            # One shard's write lock: un-splice the postings.
            stage_started = time.perf_counter()
            shard = self._shards[shard_id]
            with shard.lock.write_locked():
                shard.unsplice(document)
                self._generations[shard_id] += 1
            unsplice_s = time.perf_counter() - stage_started
            if trace is not None:
                trace.record("unsplice", unsplice_s, shard=shard_id)
        except BaseException:
            self._abort_remove(doc_id, document if logged else None)
            raise
        self._commit_remove(doc_id)
        elapsed = time.perf_counter() - started
        self.stats.record_ingest(
            elapsed,
            len(document),
            document.num_tokens,
            removed=True,
            shard=shard_id,
        )
        self._heat.record_splice(
            shard_id,
            frame_bytes or _estimate_document_bytes(document),
            unsplice_s,
        )
        if trace is not None:
            trace.annotate(shard=shard_id)
            trace.finish()
            self._trace_store.record(
                frag,
                trace,
                parent_span_id=(
                    trace_context.span_id if trace_context is not None else None
                ),
                kind="ingest",
                node=self.name,
            )
        self._observe_slow_ingest(
            "remove",
            elapsed,
            doc_id=doc_id,
            shard=shard_id,
            stages={"wal": wal_s, "unsplice": unsplice_s},
            frame_bytes=frame_bytes,
            sentences=len(document),
            tokens=document.num_tokens,
            trace=trace,
            trace_id=frag.trace_id if frag is not None else None,
            client_id=client_id,
        )
        return document

    def reserve_sids(self, count: int) -> int:
        """Atomically reserve a contiguous range of *count* sentence ids.

        Returns the range's first sid.  Pass it later as ``first_sid`` to
        :meth:`add_document` — reserved ranges may be consumed in any
        order by any writer thread, which is how concurrent ingest can be
        made **sid-identical** to a serial one: pre-plan every document's
        range in a deterministic order, then ingest in parallel.  Size a
        document's reservation with the **raw sentence-split count** —
        ``len(pipeline.tokenizer.split_sentences(text))`` — which is what
        the unreserved path uses; annotation may skip empty sentences, so
        the actual documents can use fewer ids.  A range that is reserved
        but never consumed (or only partially consumed) leaves a harmless
        gap; sids only need to be unique and monotonic per reservation.
        A zero-width request still reserves one id (so every reservation
        has a distinct base); the unused id is another gap.
        """
        if count < 0:
            raise ServiceError(f"cannot reserve a negative sid range ({count})")
        with self._meta_lock:
            self._ensure_open()
            base = self._next_sid
            self._next_sid += max(count, 1)
            self._sid_reservations[base] = count
            return base

    # -- staged-pipeline plumbing --------------------------------------
    def _claim_ingest(
        self,
        doc_id: str | None,
        reserve: int,
        first_sid: int | None,
        ingest_bytes: int = 0,
    ) -> tuple[str, int, tuple[int, int] | None]:
        """Claim a doc id and reserve a sid range (meta lock, microseconds).

        Returns ``(resolved_id, base_sid, consumed_reservation)`` — the
        last element is the ``(base, count)`` of a :meth:`reserve_sids`
        reservation this claim consumed (so an aborted ingest can restore
        it), or ``None``.  The claim blocks while a checkpoint drain
        barrier is up — or, with ``max_inflight_ingest_bytes`` set, while
        admitting *ingest_bytes* would push the in-flight annotation bytes
        over the bound (backpressure; an oversized document is still
        admitted once the pipeline is empty, so nothing deadlocks) — and
        marks the ingest in-flight so checkpoints wait for it
        symmetrically.  Admission is FIFO, so a large blocked document is
        never starved by smaller claims arriving behind it.
        """
        with self._meta_cond:
            # admission is FIFO (ticketed): without an order, a large
            # document blocked on the byte budget could be starved forever
            # by a stream of small claims slipping into the headroom
            ticket = object()
            self._ingest_admission.append(ticket)
            try:
                waited_for_admission = False
                while True:
                    over_budget = (
                        self._max_inflight_ingest_bytes is not None
                        and self._inflight_ingest_bytes > 0
                        and self._inflight_ingest_bytes + ingest_bytes
                        > self._max_inflight_ingest_bytes
                    )
                    if (
                        not self._ingest_barrier
                        and self._ingest_admission[0] is ticket
                        and not over_budget
                    ):
                        break
                    if not self._ingest_barrier and not waited_for_admission:
                        waited_for_admission = True
                        self.stats.record_backpressure_wait()
                    self._meta_cond.wait()
            finally:
                # admitted (or raising): stop gating the claims behind us.
                # The rest of the claim runs without releasing the lock, so
                # dropping the ticket here cannot let anyone overtake.
                self._ingest_admission.remove(ticket)
                self._meta_cond.notify_all()
            self._ensure_open()
            resolved = doc_id if doc_id is not None else self._fresh_doc_id()
            if resolved in self._doc_shard or resolved in self._pending_docs:
                raise ServiceError(f"document id {resolved!r} already ingested")
            consumed: tuple[int, int] | None = None
            if first_sid is not None:
                reserved = self._sid_reservations.get(first_sid)
                if reserved is not None:
                    if reserved < reserve:
                        # leave the reservation intact: the caller can
                        # retry with a correctly sized range
                        raise ServiceError(
                            f"sid range at {first_sid} reserved {reserved} ids "
                            f"but the document needs {reserve} (size "
                            f"reservations with tokenizer.split_sentences)"
                        )
                    del self._sid_reservations[first_sid]
                    consumed = (first_sid, reserved)
                elif first_sid >= self._next_sid:
                    self._next_sid = first_sid + reserve
                else:
                    raise ServiceError(
                        f"first_sid {first_sid} is neither a reserved range "
                        f"nor fresh (next sid is {self._next_sid})"
                    )
                base = first_sid
            else:
                base = self._next_sid
                self._next_sid += reserve
            self._pending_docs.add(resolved)
            self._inflight_ingests += 1
            if ingest_bytes:
                self._inflight_ingest_bytes += ingest_bytes
                self._claimed_ingest_bytes[resolved] = ingest_bytes
            return resolved, base, consumed

    def _annotate_off_lock(self, text: str, doc_id: str, first_sid: int) -> Document:
        """Run NLP annotation with no service lock held (stage 1)."""
        pool = self._annotation_pool
        if pool is None:
            return self.pipeline.annotate(text, doc_id=doc_id, first_sid=first_sid)
        if self._annotation_processes:
            return pool.submit(_annotate_in_worker, text, doc_id, first_sid).result()
        return pool.submit(
            self.pipeline.annotate, text, doc_id=doc_id, first_sid=first_sid
        ).result()

    def _splice_into_shard(self, document: Document) -> _Shard:
        """Splice postings under only the target shard's write lock (stage 3)."""
        shard = self._shards[self._index_set.shard_id(document.doc_id)]
        with shard.lock.write_locked():
            shard.splice(document)
            self._generations[shard.shard_id] += 1
        return shard

    def _commit_ingest(self, doc_id: str, shard_id: int) -> None:
        """Publish a finished staged ingest (meta lock, microseconds)."""
        with self._meta_cond:
            self._doc_shard[doc_id] = shard_id
            self._pending_docs.discard(doc_id)
            self._inflight_ingest_bytes -= self._claimed_ingest_bytes.pop(doc_id, 0)
            if self._wal is not None:
                self._ops_since_checkpoint += 1
            self._inflight_ingests -= 1
            self._meta_cond.notify_all()

    def _abort_ingest(
        self,
        doc_id: str,
        logged: bool = False,
        reservation: tuple[int, int] | None = None,
    ) -> None:
        """Roll back a failed staged ingest.

        A consumed :meth:`reserve_sids` *reservation* is restored so the
        caller can retry a transient failure with the same planned
        ``first_sid``; an implicit sid range simply leaks (a harmless gap
        — sids only need to be unique and monotonic).

        When the add was already WAL-logged (the failure struck between
        the durable append and the splice), a compensating remove record
        is appended so replay nets to nothing — otherwise a restart would
        resurrect a document whose ingest the caller saw fail, and a
        successful retry of the same doc id would make replay see two
        adds for one id and refuse to open the store.
        """
        if logged:
            try:
                self._log(WalRecord(op=OP_REMOVE, doc_id=doc_id))
            except Exception:
                # The WAL itself is failing; the original error (about to
                # propagate from the caller) is the actionable one.  The
                # orphaned add record can at worst resurrect this document
                # on restart.
                pass
        with self._meta_cond:
            self._pending_docs.discard(doc_id)
            self._inflight_ingest_bytes -= self._claimed_ingest_bytes.pop(doc_id, 0)
            if reservation is not None:
                self._sid_reservations.setdefault(*reservation)
            self._inflight_ingests -= 1
            if logged and self._wal is not None:
                # the add + compensating remove both count toward the
                # checkpoint policy's ops threshold
                self._ops_since_checkpoint += 2
            self._meta_cond.notify_all()

    def _claim_ingest_batch(
        self,
        doc_ids: list[str | None],
        reserves: list[int],
        sizes: list[int],
    ) -> list[tuple[str, int]]:
        """Claim a whole bulk chunk in one meta-lock round.

        The batch analogue of :meth:`_claim_ingest`: one FIFO admission
        ticket covers the chunk (its total bytes are admitted together, so
        backpressure sees the true load), every id is resolved/validated
        and every sid range reserved under a single lock acquisition, and
        the chunk counts as **one** in-flight unit for the checkpoint
        drain barrier.  Returns ``(resolved_id, base_sid)`` per document.
        On any validation failure the whole chunk's claims are released
        before the error propagates — bulk claims are all-or-nothing.
        """
        total_bytes = sum(sizes)
        with self._meta_cond:
            ticket = object()
            self._ingest_admission.append(ticket)
            try:
                waited_for_admission = False
                while True:
                    over_budget = (
                        self._max_inflight_ingest_bytes is not None
                        and self._inflight_ingest_bytes > 0
                        and self._inflight_ingest_bytes + total_bytes
                        > self._max_inflight_ingest_bytes
                    )
                    if (
                        not self._ingest_barrier
                        and self._ingest_admission[0] is ticket
                        and not over_budget
                    ):
                        break
                    if not self._ingest_barrier and not waited_for_admission:
                        waited_for_admission = True
                        self.stats.record_backpressure_wait()
                    self._meta_cond.wait()
            finally:
                self._ingest_admission.remove(ticket)
                self._meta_cond.notify_all()
            self._ensure_open()
            claims: list[tuple[str, int]] = []
            try:
                for doc_id, reserve, size in zip(doc_ids, reserves, sizes):
                    resolved = (
                        doc_id if doc_id is not None else self._fresh_doc_id()
                    )
                    if resolved in self._doc_shard or resolved in self._pending_docs:
                        raise ServiceError(
                            f"document id {resolved!r} already ingested"
                        )
                    base = self._next_sid
                    self._next_sid += reserve
                    # marking pending as we go keeps later ids in the same
                    # chunk (and _fresh_doc_id) from colliding with this one
                    self._pending_docs.add(resolved)
                    if size:
                        self._claimed_ingest_bytes[resolved] = size
                    claims.append((resolved, base))
            except BaseException:
                for resolved, _ in claims:
                    self._pending_docs.discard(resolved)
                    self._claimed_ingest_bytes.pop(resolved, None)
                self._meta_cond.notify_all()
                raise
            self._inflight_ingests += 1
            self._inflight_ingest_bytes += total_bytes
            return claims

    def _commit_ingest_batch(self, assignments: list[tuple[str, int]]) -> None:
        """Publish a finished bulk chunk in one meta-lock round."""
        with self._meta_cond:
            for doc_id, shard_id in assignments:
                self._doc_shard[doc_id] = shard_id
                self._pending_docs.discard(doc_id)
                self._inflight_ingest_bytes -= self._claimed_ingest_bytes.pop(
                    doc_id, 0
                )
            if self._wal is not None:
                self._ops_since_checkpoint += len(assignments)
            self._inflight_ingests -= 1
            self._meta_cond.notify_all()

    def _abort_ingest_batch(
        self, claims: list[tuple[str, int]], logged_ids: list[str]
    ) -> None:
        """Roll back a failed bulk chunk.

        Appends compensating removes for every record the chunk already
        logged (replay nets to nothing, as in :meth:`_abort_ingest`) and
        releases every claim in one meta-lock round.  Implicit sid ranges
        leak as harmless gaps.
        """
        for doc_id in logged_ids:
            try:
                self._log(WalRecord(op=OP_REMOVE, doc_id=doc_id))
            except Exception:
                pass  # the original chunk failure is the actionable error
        with self._meta_cond:
            for doc_id, _ in claims:
                self._pending_docs.discard(doc_id)
                self._inflight_ingest_bytes -= self._claimed_ingest_bytes.pop(
                    doc_id, 0
                )
            if logged_ids and self._wal is not None:
                self._ops_since_checkpoint += 2 * len(logged_ids)
            self._inflight_ingests -= 1
            self._meta_cond.notify_all()

    def _claim_remove(self, doc_id: str) -> tuple[Document, int]:
        """Claim a staged removal (meta lock, microseconds).

        Validates the id, marks it mid-removal (conflicting adds and
        removes are rejected until commit/abort) and counts the operation
        in flight so checkpoint drains cover it.  Returns the live
        document and its shard — stable for the duration of the claim:
        nothing else may touch a claimed id.
        """
        with self._meta_cond:
            while self._ingest_barrier:
                self._meta_cond.wait()
            self._ensure_open()
            if doc_id in self._pending_docs:
                raise ServiceError(f"document id {doc_id!r} is still being ingested")
            if doc_id in self._pending_removes:
                raise ServiceError(f"document id {doc_id!r} is already being removed")
            if doc_id not in self._doc_shard:
                raise ServiceError(f"unknown document id {doc_id!r}")
            shard_id = self._doc_shard[doc_id]
            document = self._shards[shard_id].documents.get(doc_id)
            if document is None:
                # a previous removal failed partway through its un-splice:
                # the id is routed but the document is gone from the shard
                raise ServiceError(
                    f"document id {doc_id!r} is in an inconsistent state "
                    f"after a failed removal; reopen the service to replay "
                    f"the durable history"
                )
            self._pending_removes.add(doc_id)
            self._inflight_ingests += 1
            return document, shard_id

    def _commit_remove(self, doc_id: str) -> None:
        """Publish a finished staged removal (meta lock, microseconds)."""
        with self._meta_cond:
            self._doc_shard.pop(doc_id, None)
            self._pending_removes.discard(doc_id)
            if self._wal is not None:
                self._ops_since_checkpoint += 1
            self._inflight_ingests -= 1
            self._meta_cond.notify_all()

    def _abort_remove(self, doc_id: str, logged_document: Document | None) -> None:
        """Roll back a failed staged removal.

        When the removal was already WAL-logged but the un-splice failed
        (*logged_document* is the still-live document), a compensating
        ``add`` record is appended so replay nets to nothing — otherwise a
        restart would drop a document whose removal the caller saw fail.
        """
        if logged_document is not None:
            try:
                self._log(
                    WalRecord(
                        op=OP_ADD,
                        doc_id=doc_id,
                        document=logged_document,
                    )
                )
            except Exception:
                # The WAL itself is failing; the original error (about to
                # propagate) is the actionable one.  The orphaned remove
                # record can at worst drop this document on restart.
                pass
        with self._meta_cond:
            self._pending_removes.discard(doc_id)
            if logged_document is not None and self._wal is not None:
                self._ops_since_checkpoint += 2
            self._inflight_ingests -= 1
            self._meta_cond.notify_all()

    def _log(self, record: WalRecord, trace: Span | None = None) -> int:
        """Write-ahead: make one operation durable before applying it.

        Thread-safe; concurrent calls coalesce their fsyncs (group
        commit).  A no-op on a memory-only service.  Returns the appended
        frame size in bytes (0 when memory-only).  ``trace`` is forwarded
        to the WAL for ``wal_append``/``fsync_wait`` child spans.
        """
        if self._wal is not None:
            if record.trace is not None:
                self._wal_traces_logged += 1
            appended = self._wal.append(record, trace=trace)
            self.stats.record_wal_append(appended)
            return appended
        return 0

    def _log_pipelined(
        self, record: WalRecord, trace: Span | None = None
    ) -> tuple[int, CommitTicket | None]:
        """Buffered write-ahead append that does not wait for the fsync.

        Returns ``(frame_bytes, ticket)`` — the ticket is the commit
        future (``None`` on a memory-only service).  Log *order* is fixed
        when this returns; durability arrives when the ticket is waited on
        or any later group commit covers the frame.
        """
        if self._wal is not None:
            if record.trace is not None:
                self._wal_traces_logged += 1
            appended, ticket = self._wal.append_pipelined(record, trace=trace)
            self.stats.record_wal_append(appended)
            return appended, ticket
        return 0, None

    def _apply_add_locked(self, document: Document) -> _Shard:
        """Route and splice one document under the meta lock (replay path,
        ``add_annotated_document``); updates the sid counter from the
        document's actual sids."""
        self._next_sid = max(
            self._next_sid, max((s.sid for s in document), default=self._next_sid - 1) + 1
        )
        shard = self._shards[self._index_set.shard_id(document.doc_id)]
        self._doc_shard[document.doc_id] = shard.shard_id
        with shard.lock.write_locked():
            shard.splice(document)
            self._generations[shard.shard_id] += 1
        return shard

    def _apply_remove_locked(self, doc_id: str) -> tuple[int, Document]:
        """Remove one document from its shard (meta lock held)."""
        shard_id = self._doc_shard.pop(doc_id)
        shard = self._shards[shard_id]
        with shard.lock.write_locked():
            document = shard.documents[doc_id]
            shard.unsplice(document)
            self._generations[shard_id] += 1
        return shard_id, document

    def _fresh_doc_id(self) -> str:
        """A doc id not currently live or mid-ingest (meta lock held)."""
        candidate = f"doc{len(self._doc_shard) + len(self._pending_docs)}"
        while candidate in self._doc_shard or candidate in self._pending_docs:
            candidate = candidate + "_"
        return candidate

    def _ensure_open(self) -> None:
        """Raise :class:`ServiceError` when the service has been closed."""
        if self._closed:
            raise ServiceError("service is closed")

    # ------------------------------------------------------------------
    # querying (read side)
    # ------------------------------------------------------------------
    def query(
        self,
        query: str | KokoQuery | CompiledQuery,
        threshold_override: float | None = None,
        keep_all_scores: bool = False,
        explain: bool = False,
        deadline: float | None = None,
        trace_context: TraceContext | None = None,
        client_id: str | None = None,
    ) -> KokoResult | ExplainedResult:
        """Evaluate one query against the current corpus.

        String queries go through the plan cache and the generation-stamped
        result caches; pre-parsed queries bypass both.  Execution holds
        per-shard *read* locks only, so any number of queries run
        concurrently with each other and with the off-lock stages of
        in-flight ingests.

        Parameters
        ----------
        query:
            Query text, a parsed :class:`~repro.koko.ast.KokoQuery`, or a
            pre-compiled plan.
        threshold_override:
            Replace the query's ``with threshold`` value for this call.
        keep_all_scores:
            Keep per-variable scores on every tuple instead of only the
            aggregate-relevant ones.
        explain:
            Return an :class:`~repro.observability.tracing.ExplainedResult`
            carrying the full span tree (cache lookups, shard fan-out,
            every pipeline stage per shard, merge) next to the ordinary
            result.  The pipeline **always executes fully** under
            ``explain=True`` — result and partial caches are probed (and
            their outcomes recorded as spans) but never served from, so
            the report reflects real per-stage cost; the tuples are
            identical to a plain query's.
        deadline:
            A ``time.monotonic()`` timestamp after which the query is
            abandoned: checked on entry, before each shard is dispatched,
            and at the start of each shard's scan, raising
            :class:`~repro.errors.DeadlineExceeded` — cooperative
            cancellation, so already-running shard scans finish but no
            new work starts for a caller that has given up.
        trace_context:
            A propagated :class:`~repro.observability.tracing.TraceContext`;
            its ``sampled`` flag replaces the local sampling decision and
            the query's span tree joins the caller's trace.
        client_id:
            The caller's identity, recorded on slow-op entries.
        """
        self._ensure_open()
        self._check_deadline(deadline)
        started = time.perf_counter()
        trace: Span | None = None
        frag: TraceContext | None = None
        sampled = explain or (
            trace_context.sampled
            if trace_context is not None
            else self._tracer.should_sample()
        )
        if sampled:
            self._traces_sampled.inc()
            frag = (
                trace_context.child()
                if trace_context is not None
                else TraceContext.root()
            )
            trace = Span("query", shards=len(self._shards), trace_id=frag.trace_id)
        result_hit: bool | None = None
        plan_hit: bool | None = None
        if isinstance(query, str):
            key = (query, threshold_override, keep_all_scores)
            stamp = tuple(self._generations)
            lookup_started = time.perf_counter()
            cached = self._result_cache.get(key, stamp)
            if trace is not None:
                trace.record(
                    "result_cache",
                    time.perf_counter() - lookup_started,
                    hit=cached is not None,
                )
            if cached is not None and not explain:
                result = cached
                result_hit = True
            else:
                # explain re-executes even on a result-cache hit — the
                # point is the per-stage breakdown, which a cached result
                # cannot provide.  The hit still counts as one (the cache
                # could have served it).
                result_hit = cached is not None
                lookup_started = time.perf_counter()
                plan, plan_hit = self._plan_cache.get_or_compile(query)
                if trace is not None:
                    trace.record(
                        "plan_cache",
                        time.perf_counter() - lookup_started,
                        hit=plan_hit,
                    )
                result = self._execute(
                    plan,
                    threshold_override,
                    keep_all_scores,
                    # explain bypasses the per-shard partial caches too, so
                    # every shard runs every stage and the tree is complete
                    cache_key=None if explain else key,
                    trace=trace,
                    deadline=deadline,
                )
                self._result_cache.put(key, stamp, result)
        else:
            result = self._execute(
                query,
                threshold_override,
                keep_all_scores,
                trace=trace,
                deadline=deadline,
            )
        elapsed = time.perf_counter() - started
        self.stats.record_query(
            elapsed, result_cache_hit=result_hit, plan_cache_hit=plan_hit
        )
        if trace is not None:
            trace.annotate(tuples=len(result))
            trace.finish()
            self._trace_store.record(
                frag,
                trace,
                parent_span_id=(
                    trace_context.span_id if trace_context is not None else None
                ),
                kind="query",
                node=self.name,
            )
        self._observe_slow_query(
            query,
            elapsed,
            result,
            result_hit,
            plan_hit,
            trace,
            trace_id=frag.trace_id if frag is not None else None,
            client_id=client_id,
        )
        if explain:
            return ExplainedResult(result=result, trace=trace)
        return result

    def _execute(
        self,
        query: str | KokoQuery | CompiledQuery,
        threshold_override: float | None,
        keep_all_scores: bool,
        cache_key=None,
        trace: Span | None = None,
        deadline: float | None = None,
    ) -> KokoResult:
        """Run the stage pipeline on every shard and merge the results.

        With a ``cache_key`` (string queries), shards whose generation is
        unchanged since a previous execution of the same query are served
        from the per-shard partial cache — only the shards that actually
        ingested since then re-execute.  With ``trace``, the fan-out gets
        a ``shard_fanout`` span with one ``shardN`` child per shard and a
        ``merge`` span for the deterministic combine.
        """
        if len(self._shards) == 1:
            if trace is None:
                return self._execute_shard(
                    self._shards[0],
                    query,
                    threshold_override,
                    keep_all_scores,
                    deadline=deadline,
                )
            with trace.span("shard_fanout", shards=1) as fanout:
                return self._execute_shard(
                    self._shards[0],
                    query,
                    threshold_override,
                    keep_all_scores,
                    trace=fanout,
                    deadline=deadline,
                )
        pool = self._shard_pool
        if pool is None:
            raise ServiceError("service is closed")
        fanout = (
            trace.child("shard_fanout", shards=len(self._shards))
            if trace is not None
            else None
        )
        partials: list[KokoResult | None] = [None] * len(self._shards)
        pending: list[_Shard] = []
        for shard in self._shards:
            lookup_started = time.perf_counter()
            cached = (
                self._shard_result_caches[shard.shard_id].get(
                    cache_key, self._generations[shard.shard_id]
                )
                if cache_key is not None
                else None
            )
            if cached is not None:
                partials[shard.shard_id] = cached
                self.stats.record_shard_partial(reused=True, shard=shard.shard_id)
                if fanout is not None:
                    fanout.record(
                        f"shard{shard.shard_id}",
                        time.perf_counter() - lookup_started,
                        partial_cache="hit",
                    )
            else:
                pending.append(shard)
        if pending:
            self._check_deadline(deadline)
            # Normalise once so the fan-out doesn't repeat parse + normalise
            # per shard (the plan cache already hands us a CompiledQuery).
            if not isinstance(query, CompiledQuery):
                query = compile_query(query)
            futures = [
                (
                    shard.shard_id,
                    pool.submit(
                        self._execute_shard,
                        shard,
                        query,
                        threshold_override,
                        keep_all_scores,
                        cache_key,
                        fanout,
                        deadline,
                    ),
                )
                for shard in pending
            ]
            for shard_id, future in futures:
                partials[shard_id] = future.result()
        if fanout is not None:
            fanout.finish()
        if trace is None:
            return merge_results([p for p in partials if p is not None])
        with trace.span("merge"):
            return merge_results([p for p in partials if p is not None])

    def _execute_shard(
        self,
        shard: _Shard,
        query: str | KokoQuery | CompiledQuery,
        threshold_override: float | None,
        keep_all_scores: bool,
        cache_key=None,
        trace: Span | None = None,
        deadline: float | None = None,
    ) -> KokoResult:
        """Execute one shard's slice under its read lock; cache the partial.

        ``trace`` is the fan-out span this execution should hang its own
        ``shardN`` child under (safe from pool threads: span child lists
        are lock-guarded).  An expired *deadline* abandons the shard
        before its scan starts (cooperative cancellation: queued shards
        of a timed-out query never run).
        """
        self._check_deadline(deadline)
        started = time.perf_counter()
        span = trace.child(f"shard{shard.shard_id}") if trace is not None else None
        with shard.lock.read_locked():
            # The stamp is read under the read lock, so it is exactly the
            # generation this execution observes on this shard.
            generation = self._generations[shard.shard_id]
            result = shard.engine.execute(
                query,
                threshold_override=threshold_override,
                keep_all_scores=keep_all_scores,
                trace=span,
            )
        if cache_key is not None:
            self._shard_result_caches[shard.shard_id].put(cache_key, generation, result)
            self.stats.record_shard_partial(reused=False, shard=shard.shard_id)
        if span is not None:
            span.annotate(tuples=len(result), generation=generation)
            span.finish()
        elapsed = time.perf_counter() - started
        self.stats.record_shard_query(shard.shard_id, elapsed)
        self._heat.record_query(
            shard.shard_id, elapsed, skip_candidates=result.candidate_sentences
        )
        return result

    @staticmethod
    def _check_deadline(deadline: float | None) -> None:
        """Raise :class:`DeadlineExceeded` when *deadline* has passed."""
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded("query deadline expired")

    def _record_shard_cache_eviction(self, shard_id: int, stale: bool) -> None:
        """Forward one shard-partial-cache eviction into the service stats."""
        self.stats.record_shard_cache_eviction(shard_id, stale=stale)

    def query_batch(
        self,
        queries: list[str | KokoQuery | CompiledQuery],
        threshold_override: float | None = None,
        keep_all_scores: bool = False,
        max_workers: int | None = None,
    ) -> list[KokoResult]:
        """Evaluate a batch of queries concurrently, preserving order.

        Each result carries its own :class:`~repro.koko.results.StageTimings`
        exactly as single-query execution would.  The batch pool is separate
        from the per-shard fan-out pool, so batched queries on a sharded
        service still parallelise across shards.

        ``max_workers`` overrides the service-level thread-pool width for
        this batch only.
        """
        self._ensure_open()
        if not queries:
            return []
        workers = max(1, min(max_workers or self.max_workers, len(queries)))
        with ThreadPoolExecutor(max_workers=workers) as executor:
            return list(
                executor.map(
                    lambda q: self.query(
                        q,
                        threshold_override=threshold_override,
                        keep_all_scores=keep_all_scores,
                    ),
                    queries,
                )
            )

    # ------------------------------------------------------------------
    # async front end
    # ------------------------------------------------------------------
    def _run_async(self, fn, /, *args, **kwargs):
        """Run a blocking service call on the front-end pool as an awaitable."""
        self._ensure_open()
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(self._frontend_pool, partial(fn, *args, **kwargs))

    async def aquery(
        self,
        query: str | KokoQuery | CompiledQuery,
        threshold_override: float | None = None,
        keep_all_scores: bool = False,
        explain: bool = False,
    ) -> KokoResult | ExplainedResult:
        """Async :meth:`query`: awaitable, runs on the front-end thread pool.

        The event loop is never blocked — per-shard fan-out, read locking
        and caching behave exactly as in the synchronous call.
        """
        return await self._run_async(
            self.query,
            query,
            threshold_override=threshold_override,
            keep_all_scores=keep_all_scores,
            explain=explain,
        )

    async def aadd_document(
        self, text: str, doc_id: str | None = None, first_sid: int | None = None
    ) -> Document:
        """Async :meth:`add_document`: annotation, group-committed WAL append
        and the shard splice all happen off the event loop; awaiting the
        result gives the same durability guarantee as the blocking call."""
        return await self._run_async(
            self.add_document, text, doc_id=doc_id, first_sid=first_sid
        )

    async def aremove_document(self, doc_id: str) -> Document:
        """Async :meth:`remove_document` on the front-end thread pool."""
        return await self._run_async(self.remove_document, doc_id)

    async def aquery_batch(
        self,
        queries: list[str | KokoQuery | CompiledQuery],
        threshold_override: float | None = None,
        keep_all_scores: bool = False,
    ) -> list[KokoResult]:
        """Async batch evaluation: queries fan out as individual awaitables
        on the front-end pool (bounded by ``max_workers``) and results come
        back in input order."""
        self._ensure_open()
        return list(
            await asyncio.gather(
                *(
                    self.aquery(
                        query,
                        threshold_override=threshold_override,
                        keep_all_scores=keep_all_scores,
                    )
                    for query in queries
                )
            )
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the service down cleanly (idempotent).

        A durable service stops the checkpoint thread, drains in-flight
        staged ingests, flushes a final checkpoint when anything was
        logged since the last one, and closes the WAL — so a
        context-managed service always leaves a consistent,
        immediately-loadable on-disk state.  A memory-only service just
        drains its pools.  Calls issued after ``close`` raise
        :class:`ServiceError`.
        """
        if self._closed:
            return
        self._closed = True
        if self._checkpoint_scheduler is not None:
            self._checkpoint_scheduler.stop()
            self._checkpoint_scheduler = None
        # Drain staged ingests that claimed before _closed was set: they
        # must reach the WAL and splice before the WAL (and pools) go
        # away.  New claims already raise, so the count only falls.
        with self._meta_cond:
            while self._inflight_ingests:
                self._meta_cond.wait()
        if self._wal is not None:
            try:
                if self._ops_since_checkpoint:
                    self.checkpoint()
            finally:
                self._wal.close()
                self._wal = None
        if self._annotation_pool is not None:
            self._annotation_pool.shutdown(wait=True)
            self._annotation_pool = None
        self._frontend_pool.shutdown(wait=True)
        if self._shard_pool is not None:
            self._shard_pool.shutdown(wait=True)
            self._shard_pool = None
        self._slow_log.close()

    def __enter__(self) -> "KokoService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close` (flushes a final checkpoint)."""
        self.close()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (telemetry liveness probe)."""
        return self._closed

    def shard_heat_report(self) -> ShardHeatReport:
        """One consistent, scored cut of every shard's heat signals.

        The :class:`~repro.observability.heat.ShardHeatReport` blends
        queries routed, skip-plan candidates scanned, splice bytes, and
        EWMA stage latency into a per-shard ``heat_score``; it backs the
        telemetry ``/shards`` endpoint and is the input signal for shard
        split/rebalance decisions.
        """
        return self._heat.report()

    @property
    def metrics(self) -> MetricsRegistry:
        """The service's unified metrics registry.

        One registry holds every layer's metrics — query/cache/ingest
        counters, WAL and checkpoint durability metrics, per-shard
        families, and (when replication is attached) shipper and replica
        lag gauges.  ``service.metrics.render_text()`` is the Prometheus
        exposition; ``render_json()`` the structured dump.
        """
        return self.stats.registry

    def recent_slow_ops(
        self, limit: int | None = None, trace_id: str | None = None
    ) -> list[dict]:
        """Newest-first structured slow-op entries from the ring buffer.

        Each entry is the dict that was (optionally) written to the slow-op
        log file: kind, duration, per-stage millisecond breakdown, cache
        outcomes / WAL frame size, ``trace_id``/``client_id`` when the op
        came in traced or over RPC, and the span tree when traced.
        *trace_id* filters to entries of that trace (the whole ring is
        scanned before *limit* applies).
        """
        if trace_id is None:
            return self._slow_log.recent(limit)
        matching = [
            entry
            for entry in self._slow_log.recent(None)
            if entry.get("trace_id") == trace_id
        ]
        return matching[:limit] if limit is not None else matching

    @property
    def trace_store(self) -> TraceStore:
        """The per-node ring of completed sampled traces (``/traces``)."""
        return self._trace_store

    @property
    def wal_traces_logged(self) -> int:
        """How many WAL records carried a trace context (advisory).

        The log shipper checks this before paying per-record payload
        decodes on the ship path: zero means no shipped record can carry
        a context, so shipping stays decode-free.
        """
        return self._wal_traces_logged

    def _observe_slow_query(
        self,
        query,
        elapsed: float,
        result: KokoResult,
        result_hit: bool | None,
        plan_hit: bool | None,
        trace: Span | None,
        trace_id: str | None = None,
        client_id: str | None = None,
    ) -> None:
        """Record one structured slow-op entry if *elapsed* crosses the bar."""
        threshold = self._slow_query_ms
        if threshold is None:
            return
        duration_ms = elapsed * 1000.0
        if duration_ms < threshold:
            return
        timings = result.timings
        entry = {
            "kind": "query",
            "ts_unix": round(time.time(), 3),
            "duration_ms": round(duration_ms, 3),
            "query_sha1": (
                hashlib.sha1(query.encode()).hexdigest()[:12]
                if isinstance(query, str)
                else None
            ),
            "trace_id": trace_id,
            "client_id": client_id,
            "shards": len(self._shards),
            "tuples": len(result),
            "candidate_sentences": result.candidate_sentences,
            "cache": {
                "result_cache_hit": result_hit,
                "plan_cache_hit": plan_hit,
            },
            "stages_ms": {
                "normalize": round(timings.normalize * 1000.0, 3),
                "dpli": round(timings.dpli * 1000.0, 3),
                "load": round(timings.load_articles * 1000.0, 3),
                "gsp": round(timings.gsp * 1000.0, 3),
                "extract": round(timings.extract * 1000.0, 3),
                "aggregate": round(timings.satisfying * 1000.0, 3),
            },
        }
        if trace is not None:
            entry["trace"] = trace.to_dict()
        self._slow_ops.labels("query").inc()
        self._slow_log.record(entry)

    def _observe_slow_ingest(
        self,
        kind: str,
        elapsed: float,
        *,
        doc_id: str,
        shard: int,
        stages: dict[str, float],
        frame_bytes: int,
        sentences: int,
        tokens: int,
        trace: Span | None,
        trace_id: str | None = None,
        client_id: str | None = None,
    ) -> None:
        """Record one structured slow ingest/remove entry if over threshold."""
        threshold = self._slow_ingest_ms
        if threshold is None:
            return
        duration_ms = elapsed * 1000.0
        if duration_ms < threshold:
            return
        entry = {
            "kind": kind,
            "ts_unix": round(time.time(), 3),
            "duration_ms": round(duration_ms, 3),
            "trace_id": trace_id,
            "client_id": client_id,
            "doc_id": doc_id,
            "shard": shard,
            "sentences": sentences,
            "tokens": tokens,
            "wal": {
                "frame_bytes": frame_bytes,
                "mean_batch": round(self.stats.wal_mean_batch, 2),
            },
            "stages_ms": {
                name: round(seconds * 1000.0, 3) for name, seconds in stages.items()
            },
        }
        if trace is not None:
            entry["trace"] = trace.to_dict()
        self._slow_ops.labels(kind).inc()
        self._slow_log.record(entry)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of hash partitions this service routes documents across."""
        return len(self._shards)

    @property
    def generation(self) -> int:
        """Total corpus generation: the sum of every shard's stamp."""
        return sum(self._generations)

    @property
    def generations(self) -> tuple[int, ...]:
        """Per-shard generation stamps (each ingest bumps exactly one)."""
        return tuple(self._generations)

    @property
    def indexes(self) -> KokoIndexSet | ShardedIndexSet:
        """The live index set: a plain :class:`KokoIndexSet` when unsharded,
        the :class:`ShardedIndexSet` otherwise."""
        if len(self._shards) == 1:
            return self._shards[0].indexes
        return self._index_set

    @property
    def engine(self) -> KokoEngine:
        """The single shard's engine (unsharded services only)."""
        if len(self._shards) != 1:
            raise ServiceError(
                "a sharded service has no single engine; use .engines"
            )
        return self._shards[0].engine

    @property
    def engines(self) -> list[KokoEngine]:
        """Every shard's engine, in shard order."""
        return [shard.engine for shard in self._shards]

    @property
    def corpus(self) -> Corpus:
        """The single shard's corpus (unsharded services only)."""
        if len(self._shards) != 1:
            raise ServiceError(
                "a sharded service has no single corpus; use .corpora"
            )
        return self._shards[0].corpus

    @property
    def corpora(self) -> list[Corpus]:
        """Every shard's corpus slice, in shard order."""
        return [shard.corpus for shard in self._shards]

    @property
    def inflight_ingest_bytes(self) -> int:
        """Text bytes of ingests currently claimed but not yet committed."""
        with self._meta_lock:
            return self._inflight_ingest_bytes

    def next_sid(self) -> int:
        """The first sentence id a newly annotated document should use.

        With staged ingests in flight the counter includes their reserved
        ranges, so a value read here stays safe to pass as ``first_sid``
        only while no other writer claims ids in between.
        """
        return self._next_sid

    def document_ids(self) -> list[str]:
        """Ids of every fully ingested document (mid-ingest ids excluded)."""
        with self._meta_lock:
            return list(self._doc_shard)

    def shard_of(self, doc_id: str) -> int:
        """The shard index *doc_id* is (or would be) routed to."""
        return self._index_set.shard_id(doc_id)

    def statistics(self) -> IndexStatistics:
        """Current :class:`IndexStatistics` merged across every shard."""
        return IndexStatistics.merged(self.statistics_by_shard())

    def statistics_by_shard(self) -> list[IndexStatistics]:
        """Per-shard :class:`IndexStatistics` (the balance/skew view)."""
        stats = []
        for shard in self._shards:
            with shard.lock.read_locked():
                stats.append(shard.indexes.statistics())
        return stats

    def __len__(self) -> int:
        """Number of fully ingested documents."""
        return len(self._doc_shard)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"KokoService(documents={len(self._doc_shard)}, "
            f"shards={len(self._shards)}, generations={self._generations}, "
            f"durable={self._layout is not None})"
        )


class ShardedKokoService(KokoService):
    """A :class:`KokoService` that defaults to four hash partitions."""

    def __init__(self, shards: int = 4, **kwargs) -> None:
        """Same parameters as :class:`KokoService`, with ``shards=4``."""
        super().__init__(shards=shards, **kwargs)
