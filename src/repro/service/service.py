"""KokoService — a concurrent, shardable, durable query-serving layer over KOKO.

The batch pipeline of the paper builds the multi-index once over a frozen
corpus and evaluates one query at a time.  ``KokoService`` turns that into
a long-lived server:

* **Incremental ingestion** — :meth:`add_document` annotates raw text with
  the NLP pipeline and folds it into the live word, entity, PL and POS
  indexes (no rebuild); :meth:`remove_document` un-indexes a document.
* **One staged write path** — every write (``add_document``,
  ``add_documents``, ``remove_document``, ``add_annotated_document``) is a
  list of ops driven through the same stages: *claim* ids and
  sentence-id ranges under the meta lock (microseconds), *annotate* raw
  text outside every lock on the writer's own thread, *log* to the
  write-ahead log under its own group-commit machinery, *apply* under
  only the target shards' write locks, *commit* under the meta lock.  Recovery replay and replica apply run the same
  claim → apply → commit on records that are already logged.  Writers
  on different shards therefore ingest in parallel, and readers are
  never blocked by annotation or fsync.  The claim/commit bookkeeping
  lives in :class:`~repro.service.ingest.IngestState`.
* **Hash-partitioned shards** — with ``shards=N`` the corpus is split
  across N :class:`~repro.indexing.koko_index.KokoIndexSet` partitions
  (stable hash of ``doc_id``, see
  :class:`~repro.indexing.sharding.ShardedIndexSet`).  Every shard has its
  own corpus slice, index set and readers-writer lock, so ingesting a
  document write-locks **one** shard — queries keep reading the other
  N−1 concurrently.  One service-wide ``sid → (document, sentence)`` map,
  kept under the shard write locks, serves candidate loading.
* **The read path** — plan cache, result and per-shard partial caches
  stamped with per-shard generations, and one pipeline pass per query
  over the shards its partials cannot serve — lives in
  :class:`~repro.service.read.ReadPath`; :meth:`query` and
  :meth:`cached_result` wrap it in tracing, accounting and the slow-op
  log.
* **Durability with group commit** — constructed with ``storage_dir`` (or
  via :meth:`KokoService.open`), every ``add``/``remove`` is appended to a
  CRC-framed write-ahead log *before* it is applied; concurrent appends
  coalesce into shared fsyncs (one disk flush commits a whole batch — see
  :mod:`repro.persistence.wal`).  A background checkpoint thread folds the
  log into versioned snapshots.
  Reopening the directory restores the latest valid snapshot and replays
  the WAL tail — tolerating a torn final record — so the service restarts
  warm with identical query results and zero re-annotation.
* **Concurrency** — any number of queries evaluate in parallel under the
  per-shard read locks.  Checkpoints hold per-shard *read* locks only, so
  snapshotting never stalls readers.
* **Observability** — one
  :class:`~repro.observability.metrics.MetricsRegistry` (``service.metrics``,
  Prometheus text / JSON exposition) holds every counter: cache outcomes,
  ingest volume, the query-latency histogram, per-shard partial-cache
  outcomes, and durability (WAL appends, group-commit batch sizes,
  checkpoints, recovery), recorded through :class:`~repro.service.stats.ServiceStats`
  and read by name (``service.metrics.get("koko_…")``).  Query and ingest executions are
  traced into :class:`~repro.observability.tracing.Span` trees —
  deterministically sampled at ``trace_sample_rate``, or on demand via
  ``query(..., explain=True)`` which returns an EXPLAIN ANALYZE-style
  report.  Operations slower than ``slow_query_ms`` / ``slow_ingest_ms``
  land as structured entries in a slow-op ring buffer
  (:meth:`~KokoService.recent_slow_ops`, optional JSON-lines file sink).

Lock hierarchy (see ``docs/ARCHITECTURE.md`` for the full map)::

    meta lock (+ condition)   — ``IngestState``: sid reservation, doc-id
      │                         claims, routing, admission, checkpoint
      │                         drain barrier
      ├─ per-shard RW locks   — readers share, a write's apply stage
      │                         write-locks exactly the shards it touches
      └─ WAL internal locks   — frame append mutex + group-commit condvar

    The meta lock is never held while annotating, appending to the WAL,
    waiting for an fsync, holding a shard write lock or executing a
    query — on every write entry point.  A write that fails is undone by
    its ops' progress: applied ops are un-applied, logged ops get the
    inverse record appended (a remove for an add, an add for a remove)
    so replay nets to nothing, and the claims are released.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

from ..embeddings.expansion import DescriptorExpander
from ..embeddings.vectors import VectorStore
from ..errors import PersistenceError, ServiceError
from ..indexing.koko_index import IndexStatistics, KokoIndexSet
from ..indexing.sharding import ShardedIndexSet
from ..koko.ast import KokoQuery
from ..koko.engine import CompiledQuery, evidence_resources
from ..koko.results import KokoResult
from ..nlp.pipeline import Pipeline
from ..nlp.types import Corpus, Document, Sentence
from ..observability.metrics import MetricsRegistry
from ..observability.slowlog import SlowOpLog
from ..observability.tracestore import TraceStore
from ..observability.tracing import ExplainedResult, Span, TraceContext, Tracer
from ..persistence import (
    OP_ADD,
    OP_REMOVE,
    CheckpointPolicy,
    CommitTicket,
    SnapshotState,
    WalPosition,
    WalRecord,
)
from .cache import CacheEntry
from .durability import Durability
from .ingest import APPLIED, LOGGED, IngestAck, IngestState, Shard, WriteOp
from .read import ReadPath, check_deadline
from .stats import ServiceStats

__all__ = ["IngestAck", "KokoService"]

# Sizes no workload varies: distinct traces behind ``/traces``, slow-op
# entries in the ring, and the slow-op file's bytes before it rotates to
# ``<path>.1``.
TRACE_STORE_CAPACITY = 128
SLOW_OP_LOG_CAPACITY = 256
SLOW_OP_LOG_MAX_BYTES = 16 * 1024 * 1024


class KokoService(Durability):
    """A mutable-corpus, multi-query, optionally sharded and durable server.

    Results returned by :meth:`query` may be shared cache entries — treat
    them as read-only.  Recovery, checkpoints and WAL pins live in the
    :class:`~repro.service.durability.Durability` mixin.

    Parameters
    ----------
    pipeline:
        NLP pipeline used to annotate ingested text (default rule-based).
        A custom pipeline must provide ``annotate(text, doc_id,
        first_sid)`` **and** a ``tokenizer.split_sentences(text)`` whose
        count bounds the sentences ``annotate`` will produce — the staged
        ingest sizes its sid reservation with it (subclassing
        :class:`~repro.nlp.pipeline.Pipeline` satisfies both).  Each
        writer annotates on its own thread, outside every service lock.
    name:
        Name of the service's corpus (when reopening a durable directory,
        the persisted name wins).
    shards:
        Number of hash partitions.  ``None`` (the default) means one shard,
        or — when ``storage_dir`` holds an existing service — whatever
        shard count was persisted.  An explicit value that contradicts a
        recovered snapshot raises :class:`ServiceError`.
    result_cache_size:
        LRU capacity of the full-result cache and of each shard's partial
        cache (the plan cache holds ``PLAN_CACHE_SIZE`` plans).
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
        ``koko_ingest_backpressure_waits_total``.
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
        propagated ``sampled`` flag wins either way.  The per-node
        :class:`~repro.observability.tracestore.TraceStore` ring
        (``/traces``) keeps the latest ``TRACE_STORE_CAPACITY`` traces.
    slow_query_ms, slow_ingest_ms:
        Wall-clock thresholds above which a query (respectively an
        ingest or removal) emits one structured entry into the slow-op
        log.  ``None`` disables that kind of slow-op entry.
    slow_op_log_path:
        Optional file the slow-op log also appends to, one JSON line per
        entry, rotated to ``<path>.1`` at ``SLOW_OP_LOG_MAX_BYTES`` (the
        in-memory ring of the latest ``SLOW_OP_LOG_CAPACITY`` entries
        behind :meth:`recent_slow_ops` is always active).
    expander, vectors, dictionaries, use_default_vectors:
        The evidence resources every query scores with
        (:func:`~repro.koko.engine.evidence_resources`).
    use_gsp:
        Generate skip plans (GSP) during extraction.
    """

    def __init__(
        self,
        pipeline: Pipeline | None = None,
        name: str = "service",
        shards: int | None = None,
        result_cache_size: int = 256,
        max_inflight_ingest_bytes: int | None = None,
        storage_dir: str | Path | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
        bootstrap_snapshot: SnapshotState | None = None,
        trace_sample_rate: float = 0.01,
        slow_query_ms: float | None = 250.0,
        slow_ingest_ms: float | None = 1000.0,
        slow_op_log_path: str | Path | None = None,
        expander: DescriptorExpander | None = None,
        vectors: VectorStore | None = None,
        dictionaries: dict[str, set[str]] | None = None,
        use_gsp: bool = True,
        use_default_vectors: bool = True,
    ) -> None:
        if shards is not None and shards <= 0:
            raise ServiceError(f"shards must be positive, got {shards}")
        if result_cache_size <= 0:
            raise ServiceError(
                f"result_cache_size must be positive, got {result_cache_size}"
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
        self._closed = False
        recovered = self._init_durability(storage_dir, checkpoint_policy)
        adopted = recovered.snapshot if recovered is not None else bootstrap_snapshot
        if adopted is not None:
            if shards is not None and shards != adopted.num_shards:
                source = (
                    f"storage at {storage_dir}" if recovered else "bootstrap snapshot"
                )
                raise ServiceError(
                    f"{source} holds {adopted.num_shards} shard(s) but {shards} "
                    f"were requested"
                )
            shards = adopted.num_shards
            name = adopted.name

        shards = shards if shards is not None else 1
        self.name = name
        self._index_set = ShardedIndexSet(shards)
        # sid -> (document, sentence) across every shard: candidate loading
        self._by_sid: dict[int, tuple[Document, Sentence]] = {}
        self._shards = [
            Shard(i, f"{name}/shard{i}", self._index_set.shards[i], self._by_sid)
            for i in range(shards)
        ]
        self.stats = ServiceStats()
        # tracing + slow-op log share the stats registry, so one
        # render_text() exposes the whole service
        self._tracer = Tracer(trace_sample_rate)
        self._trace_store = TraceStore(TRACE_STORE_CAPACITY)
        # advisory: how many WAL records carried a trace context — the
        # shipper only pays per-record payload decodes once this is > 0
        self._wal_traces_logged = 0
        self._slow_query_ms = slow_query_ms
        self._slow_ingest_ms = slow_ingest_ms
        self._slow_log = SlowOpLog(
            capacity=SLOW_OP_LOG_CAPACITY,
            path=str(slow_op_log_path) if slow_op_log_path is not None else None,
            max_file_bytes=SLOW_OP_LOG_MAX_BYTES,
        )
        self._traces_sampled = self.stats.registry.counter(
            "koko_traces_sampled_total", "Operations traced into a span tree."
        )
        self._slow_ops = self.stats.registry.counter(
            "koko_slow_ops_total",
            "Operations that crossed their slow-op threshold.",
            labelnames=("kind",),
        )
        # bumped in place by the write side and by snapshot adoption: the
        # read path stamps its caches with this very list
        self._generations = [0] * shards
        self._read = ReadPath(
            self._shards,
            self._index_set,
            self._by_sid,
            self._generations,
            evidence_resources(expander, vectors, dictionaries, use_default_vectors),
            use_gsp,
            result_cache_size,
            self.stats,
        )
        # The meta lock and everything it guards — sid reservation, doc-id
        # claims, routing, admission, the checkpoint drain barrier — live
        # in the ingest state.  Annotation, WAL appends and posting
        # splices all run outside that lock.
        self._ingest = IngestState(
            max_inflight_ingest_bytes,
            ensure_open=self._ensure_open,
            on_admission_wait=self.stats.record_backpressure_wait,
        )

        if recovered is not None:
            self._finish_recovery(recovered)
        elif bootstrap_snapshot is not None:
            self._adopt_snapshot(bootstrap_snapshot)
        if adopted is not None or recovered is not None:
            self.stats.record_recovery(
                time.perf_counter() - recovery_started,
                documents=len(self),
                replayed=len(recovered.operations) if recovered else 0,
                torn_tail=bool(recovered and recovered.torn_tail),
            )

    # ------------------------------------------------------------------
    # durable open and replica apply (checkpoints, recovery and WAL pins
    # are in durability.py)
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, storage_dir: str | Path, **kwargs) -> "KokoService":
        """Open (or create) a durable service rooted at *storage_dir*.

        Sugar for ``KokoService(storage_dir=storage_dir, **kwargs)``: an
        existing directory restarts warm — latest valid snapshot plus WAL
        tail, zero re-annotation — and a missing one is initialised.
        """
        return cls(storage_dir=storage_dir, **kwargs)

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
        self._ensure_open()
        op = self._apply_record(record)
        self._record_writes([op], time.perf_counter() - started)
        return op.document

    # ------------------------------------------------------------------
    # ingestion (write side) — the one staged write path
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
        (sized by a cheap sentence split); NLP annotation runs on the
        calling thread outside any lock; the WAL append (durable via
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
        op = WriteOp(OP_ADD, doc_id, text=text, first_sid=first_sid)
        ticket = self._write([op], wait_durable, trace_context, client_id)
        if not wait_durable:
            return IngestAck(document=op.document, ticket=ticket)
        return op.document

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

        A failure mid-chunk rolls that chunk back (documents already
        spliced are un-spliced, logged records are cancelled by inverse
        WAL records, claims released); previously completed chunks stay
        committed.  Returns the annotated documents in input order.
        """
        texts = list(texts)
        doc_ids = list(doc_ids) if doc_ids is not None else [None] * len(texts)
        if len(doc_ids) != len(texts):
            raise ServiceError(
                f"doc_ids length {len(doc_ids)} != texts length {len(texts)}"
            )
        if batch_size < 1:
            raise ServiceError(f"batch_size must be >= 1, got {batch_size}")
        ops = [
            WriteOp(OP_ADD, doc_id, text=text) for doc_id, text in zip(doc_ids, texts)
        ]
        for start in range(0, len(ops), batch_size):
            self._write(ops[start : start + batch_size], wait_durable)
        return [op.document for op in ops]

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
        pipeline flow) satisfy that.  Staged like every other write, minus
        the annotation: the claim checks the sid span and the id under the
        meta lock, the WAL append and the splice run outside it.  A failed
        ingest hands the claimed sid span back as a reservation, so the
        same document can simply be retried.
        """
        self._write([WriteOp(OP_ADD, document.doc_id, document=document)])
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
        WAL append — one group commit — runs **off every lock**; the
        un-splice then write-locks
        only the target shard.  No fsync ever happens under the meta lock,
        so removals never stall unrelated metadata operations (claims,
        reservations, other commits).

        Removing a document that is mid-ingest, or already mid-removal,
        raises :class:`ServiceError`.  On a durable service the removal is
        WAL-logged (and fsynced) *before* it is applied — durable before
        invisible.
        """
        op = WriteOp(OP_REMOVE, doc_id)
        self._write([op], trace_context=trace_context, client_id=client_id)
        return op.document

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
        return self._ingest.reserve_sids(count)

    # -- the write state machine ---------------------------------------
    def _write(
        self,
        ops: list[WriteOp],
        wait_durable: bool = True,
        trace_context: TraceContext | None = None,
        client_id: str | None = None,
    ) -> CommitTicket | None:
        """Drive *ops* through claim → annotate → log → apply → commit.

        The only writer of the corpus: one meta-lock round claims every
        op, raw text is annotated and the records are logged with no
        service lock held, the ops are applied grouped per shard under
        that shard's write lock, and one more meta-lock round publishes
        them.  On any failure :meth:`_abort` undoes each op as far as its
        ``progress`` says it got.  Returns the commit ticket of a
        pipelined (``wait_durable=False``) write, else ``None``.
        """
        started = time.perf_counter()
        # Stage 0 (no lock): a cheap sentence split sizes the sid range to
        # reserve.  Empty sentences are skipped by annotation, so a
        # reservation is an upper bound — unused sids become gaps, which
        # the sid-keyed indexes tolerate by construction.  The text is
        # split again inside annotate(): the reservation must be sized
        # before annotation runs, and re-using the same splitter keeps the
        # count an exact upper bound of the sids annotate() will assign.
        for op in ops:
            if op.text is not None:
                op.reserve = len(self.pipeline.tokenizer.split_sentences(op.text))
                op.nbytes = len(op.text.encode("utf-8"))
        self._ingest.claim(ops)
        kind = "remove" if ops[0].kind == OP_REMOVE else "ingest"
        trace, frag = self._start_trace(kind, trace_context, doc_id=ops[0].doc_id)
        stages: dict[str, float] = {}
        try:
            self._route(ops)
            # Stage 1 (no lock): heavy NLP annotation.
            raw = [op for op in ops if op.text is not None]
            if raw:
                stage_started = time.perf_counter()
                for op in raw:
                    op.document = self.pipeline.annotate(
                        op.text, doc_id=op.doc_id, first_sid=op.base_sid
                    )
                stages["annotate"] = time.perf_counter() - stage_started
                if trace is not None:
                    trace.record(
                        "annotate",
                        stages["annotate"],
                        sentences=sum(len(op.document) for op in raw),
                    )
            # Stage 2 (no lock): write-ahead logging; group commit batches
            # concurrent fsyncs.  Durable before visible — unless the
            # caller opted into pipelined acks, where the fsync wait moves
            # behind the returned ticket and the apply proceeds at once.
            wal_span = trace.child("wal") if trace is not None else None
            stage_started = time.perf_counter()
            ticket = self._log(ops, wait_durable, frag, wal_span)
            stages["wal"] = time.perf_counter() - stage_started
            if wal_span is not None:
                wal_span.annotate(frame_bytes=sum(op.frame_bytes for op in ops))
                wal_span.finish()
            # Stage 3 (the touched shards' write locks): splice postings.
            stage_started = time.perf_counter()
            self._apply(ops, trace)
            applied = "unsplice" if kind == "remove" else "splice"
            stages[applied] = time.perf_counter() - stage_started
        except BaseException:
            self._abort(ops)
            raise
        self._ingest.commit(ops)
        elapsed = time.perf_counter() - started
        self._record_writes(ops, elapsed)
        if trace is not None:
            trace.annotate(
                shard=ops[0].shard_id,
                tokens=sum(op.document.num_tokens for op in ops),
            )
            self._finish_trace(trace, frag, trace_context, "ingest")
        self._observe_slow_ingest(
            kind, elapsed, ops, stages, trace, frag and frag.trace_id, client_id
        )
        return ticket

    def _route(self, ops: list[WriteOp]) -> None:
        """Fix each claimed op's shard, and a remove's document.

        No lock needed: nothing else may touch a claimed id, so the
        routing and the live document are stable for the claim's duration.
        """
        for op in ops:
            if op.kind == OP_ADD:
                op.shard_id = self._index_set.shard_id(op.doc_id)
                continue
            op.document = self._shards[op.shard_id].documents.get(op.doc_id)
            if op.document is None:
                # a previous removal failed partway through its un-splice:
                # the id is routed but the document is gone from the shard
                raise ServiceError(
                    f"document id {op.doc_id!r} is in an inconsistent state "
                    f"after a failed removal; reopen the service to replay "
                    f"the durable history"
                )

    def _log(
        self,
        ops: list[WriteOp],
        wait_durable: bool,
        trace_context: TraceContext | None = None,
        trace: Span | None = None,
    ) -> CommitTicket | None:
        """Write-ahead: put *ops* in the log, in order, before they apply.

        A lone durable op is one synchronous :meth:`WriteAheadLog.append`;
        a chunk or a pipelined ack is buffered appends (log order fixed)
        and one ticket, waited on here when *wait_durable* — one group
        commit covers the whole chunk.  Concurrent calls coalesce their
        fsyncs.  A no-op without a local log (memory-only service, replica,
        recovery replay), where every op counts as logged.  ``trace`` is
        forwarded to the WAL for ``wal_append``/``fsync_wait`` child spans.
        """
        wal = self._wal
        ticket: CommitTicket | None = None
        for op in ops:
            if wal is not None:
                if trace_context is not None:
                    self._wal_traces_logged += 1
                record = op.record(trace_context)
                if wait_durable and len(ops) == 1:
                    op.frame_bytes = wal.append(record, trace=trace)
                else:
                    op.frame_bytes, ticket = wal.append_pipelined(record, trace=trace)
                self.stats.record_wal_append(op.frame_bytes)
            op.progress = LOGGED
        if wait_durable and ticket is not None:
            ticket.wait()  # durable before visible, amortised over the chunk
        return ticket

    def _apply(self, ops: list[WriteOp], trace: Span | None = None) -> None:
        """Splice adds and un-splice removes, grouped per shard.

        One write-lock round per touched shard; one generation bump per
        document keeps the counters identical to a record-at-a-time
        replica apply.  Each bump is logged in the shard's change log
        (:meth:`Shard.record`) — replica apply, WAL replay and the
        inverses of :meth:`_abort` all come through here.
        """
        by_shard: dict[int, list[WriteOp]] = {}
        for op in ops:
            by_shard.setdefault(op.shard_id, []).append(op)
        for shard_id in sorted(by_shard):
            shard = self._shards[shard_id]
            group = by_shard[shard_id]
            started = time.perf_counter()
            with shard.lock.write_locked():
                for op in group:
                    added = op.kind == OP_ADD
                    if added:
                        shard.splice(op.document)
                    else:
                        shard.unsplice(op.document)
                    self._generations[shard_id] += 1
                    shard.record(self._generations[shard_id], added, op.document)
                    op.progress = APPLIED
            if trace is not None:
                name = "splice" if group[0].kind == OP_ADD else "unsplice"
                trace.record(name, time.perf_counter() - started, shard=shard_id)

    def _abort(self, ops: list[WriteOp]) -> None:
        """Undo a failed write exactly as far as each op's progress got.

        Every logged op gets its inverse record appended (a remove for an
        add, an add for a remove) so replay — and every replica — nets to
        nothing: otherwise a restart would resurrect a document whose
        ingest the caller saw fail, and a successful retry of the same id
        would make replay see two adds and refuse to open the store.
        Applied ops are then un-applied through the same :meth:`_apply`,
        and the claims are released (restoring a consumed
        :meth:`reserve_sids` range).
        """
        reached_log = [op for op in ops if op.progress in (LOGGED, APPLIED)]
        try:
            try:
                self._log([op.inverse() for op in reached_log], wait_durable=True)
            except Exception:
                # The WAL itself is failing; the original error (about to
                # propagate from the caller) is the actionable one.  The
                # orphaned records can at worst replay on restart.
                pass
            self._apply(
                [op.inverse() for op in reversed(ops) if op.progress == APPLIED]
            )
        finally:
            self._ingest.abort(ops)

    def _apply_record(self, record: WalRecord) -> WriteOp:
        """Apply one record that is already in a log (replay, replica).

        The same claim → apply → commit as :meth:`_write`, minus the
        stages a logged record is past; the claim is what validates it
        against the current state.  Raises :class:`PersistenceError` on a
        malformed record or one that contradicts the state (duplicate add,
        remove of an unknown id).
        """
        if record.op == OP_ADD and record.document is not None:
            op = WriteOp(
                OP_ADD, record.doc_id, document=record.document, replayed=True
            )
        elif record.op == OP_REMOVE:
            op = WriteOp(OP_REMOVE, record.doc_id, replayed=True)
        else:
            raise PersistenceError(
                f"malformed {record.op!r} record for {record.doc_id!r}"
            )
        try:
            self._ingest.claim([op])
        except ServiceError as exc:
            raise PersistenceError(
                f"logged {record.op} of {record.doc_id!r} contradicts the "
                f"current state: {exc}"
            ) from exc
        try:
            self._route([op])
            self._apply([op])
        except BaseException:
            self._abort([op])
            raise
        self._ingest.commit([op])
        return op

    def _record_writes(self, ops: list[WriteOp], elapsed: float) -> None:
        """Account committed ops in the ingest stats."""
        per_op = elapsed / len(ops)
        for op in ops:
            self.stats.record_ingest(
                per_op, op.document.num_tokens, removed=op.kind == OP_REMOVE
            )

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

        One :meth:`~repro.service.read.ReadPath.run` call (see
        :mod:`repro.service.read`) wrapped in tracing, accounting and the
        slow-op log.  Execution holds per-shard *read* locks only, so
        queries run concurrently with each other and with the off-lock
        stages of in-flight ingests.

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
            carrying the full span tree (cache lookups, shard fan-out, the
            one pipeline pass with each stage, merge) next to the ordinary
            result.  The pipeline **always executes fully** over every
            shard: the result cache is probed but never served from, and
            the partial caches are bypassed.  The tuples are a plain
            query's.
        deadline:
            A ``time.monotonic()`` timestamp after which the query is
            abandoned with :class:`~repro.errors.DeadlineExceeded`:
            checked on entry, on entry to the pipeline pass and before
            each of its stages (a running stage finishes).
        trace_context:
            A propagated :class:`~repro.observability.tracing.TraceContext`;
            its ``sampled`` flag replaces the local sampling decision and
            the query's span tree joins the caller's trace.
        client_id:
            The caller's identity, recorded on slow-op entries.
        """
        self._ensure_open()
        check_deadline(deadline)
        started = time.perf_counter()
        trace, frag = self._start_trace(
            "query", trace_context, force=explain, shards=len(self._shards)
        )
        result, result_hit, plan_hit = self._read.run(
            query, threshold_override, keep_all_scores, explain, trace, deadline
        )
        elapsed = time.perf_counter() - started
        self.stats.record_query(
            elapsed, result_cache_hit=result_hit, plan_cache_hit=plan_hit
        )
        if trace is not None:
            trace.annotate(tuples=len(result))
            self._finish_trace(trace, frag, trace_context, "query")
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

    def cached_result(
        self,
        query,
        threshold_override: float | None = None,
        keep_all_scores: bool = False,
        client_id: str | None = None,
    ) -> CacheEntry[KokoResult] | None:
        """The result-cache entry that answers *query* right now, else None.

        The hit path of :meth:`query` — the same probe,
        :meth:`~repro.service.read.ReadPath.cached` — for a caller that
        must not block (the RPC server's event loop): it never compiles,
        never executes and takes no shard, ingest or WAL lock.  A hit is
        counted and slow-logged as ``query`` counts one, but never traced,
        even at ``trace_sample_rate=1.0``.  A miss, a non-string query and
        a closed service return ``None`` and record nothing.  The entry is
        returned so a server can keep the value's wire bytes in its
        ``encoded`` slot.
        """
        if self._closed:
            return None
        started = time.perf_counter()
        entry = self._read.cached(query, threshold_override, keep_all_scores)
        if entry is None:
            return None
        elapsed = time.perf_counter() - started
        self.stats.record_query(elapsed, result_cache_hit=True)
        self._observe_slow_query(
            query, elapsed, entry.value, True, None, None, client_id=client_id
        )
        return entry

    def query_batch(
        self,
        queries: list[str | KokoQuery | CompiledQuery],
        threshold_override: float | None = None,
        keep_all_scores: bool = False,
    ) -> list[KokoResult]:
        """Evaluate *queries* in order, each exactly as :meth:`query` would."""
        self._ensure_open()
        return [
            self.query(
                query,
                threshold_override=threshold_override,
                keep_all_scores=keep_all_scores,
            )
            for query in queries
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the service down cleanly (idempotent).

        A durable service stops the checkpoint thread, drains in-flight
        staged ingests, flushes a final checkpoint when anything was
        logged since the last one, and closes the WAL — so a
        context-managed service always leaves a consistent,
        immediately-loadable on-disk state.  The slow-op file sink is
        closed even when that final checkpoint raises.  Calls issued
        after ``close`` raise :class:`ServiceError`.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._close_durability()
        finally:
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

    def _start_trace(
        self,
        name: str,
        trace_context: TraceContext | None,
        force: bool = False,
        **attributes,
    ) -> tuple[Span | None, TraceContext | None]:
        """Decide whether one operation is traced; open its root span.

        A propagated *trace_context*'s ``sampled`` flag replaces the local
        sampling decision (``force`` — ``explain=True`` — overrides both).
        Returns ``(None, None)`` for an untraced operation, which then
        allocates no spans at all; otherwise the root span and the
        :class:`TraceContext` fragment it is recorded under.
        """
        if not force:
            sampled = (
                trace_context.sampled
                if trace_context is not None
                else self._tracer.should_sample()
            )
            if not sampled:
                return None, None
        self._traces_sampled.inc()
        frag = (
            trace_context.child() if trace_context is not None else TraceContext.root()
        )
        return Span(name, trace_id=frag.trace_id, **attributes), frag

    def _finish_trace(
        self,
        trace: Span,
        frag: TraceContext,
        trace_context: TraceContext | None,
        kind: str,
    ) -> None:
        """Close a :meth:`_start_trace` span and file it in the trace store."""
        trace.finish()
        self._trace_store.record(
            frag,
            trace,
            parent_span_id=trace_context.span_id if trace_context is not None else None,
            kind=kind,
            node=self.name,
        )

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
        if self._slow_query_ms is None or elapsed * 1000.0 < self._slow_query_ms:
            return
        timings = result.timings
        self._record_slow("query", elapsed, trace, {
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
        })

    def _observe_slow_ingest(
        self,
        kind: str,
        elapsed: float,
        ops: list[WriteOp],
        stages: dict[str, float],
        trace: Span | None,
        trace_id: str | None = None,
        client_id: str | None = None,
    ) -> None:
        """Record one structured slow ingest/remove entry if over threshold.

        A multi-op write is one entry: the first op's id and shard, the
        sentence, token and frame-byte totals of them all.
        """
        if self._slow_ingest_ms is None or elapsed * 1000.0 < self._slow_ingest_ms:
            return
        self._record_slow(kind, elapsed, trace, {
            "trace_id": trace_id,
            "client_id": client_id,
            "doc_id": ops[0].doc_id,
            "shard": ops[0].shard_id,
            "sentences": sum(len(op.document) for op in ops),
            "tokens": sum(op.document.num_tokens for op in ops),
            "wal": {"frame_bytes": sum(op.frame_bytes for op in ops)},
            "stages_ms": {
                name: round(seconds * 1000.0, 3) for name, seconds in stages.items()
            },
        })

    def _record_slow(
        self, kind: str, elapsed: float, trace: Span | None, fields: dict
    ) -> None:
        """File one slow-op entry: kind, time and duration, *fields*, the span tree."""
        entry = {
            "kind": kind,
            "ts_unix": round(time.time(), 3),
            "duration_ms": round(elapsed * 1000.0, 3),
            **fields,
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
        with self._ingest.lock:
            return self._ingest.inflight_bytes

    def next_sid(self) -> int:
        """The first sentence id a newly annotated document should use.

        With staged ingests in flight the counter includes their reserved
        ranges, so a value read here stays safe to pass as ``first_sid``
        only while no other writer claims ids in between.
        """
        return self._ingest.next_sid

    def document_ids(self) -> list[str]:
        """Ids of every fully ingested document (mid-ingest ids excluded)."""
        with self._ingest.lock:
            return list(self._ingest.live)

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
        return len(self._ingest.live)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"KokoService(documents={len(self)}, "
            f"shards={len(self._shards)}, generations={self._generations}, "
            f"durable={self._layout is not None})"
        )

