"""The service's metric instruments and the rules that record them.

``ServiceStats`` registers the query, cache, ingest and durability
instruments of one :class:`~repro.service.KokoService` in a
:class:`~repro.observability.metrics.MetricsRegistry` (``stats.registry``,
which is ``service.metrics``) and records into them through ``record_*``
methods that encode a rule — ``record_query`` counts a bypassed cache as
neither hit nor miss, ``record_wal_fsync`` feeds four instruments from one
group commit.

The registry is the only read path: ``service.metrics.get("koko_…")``
returns the instrument (``.value`` for counters and gauges, ``.values()``
for labelled families), and ``render_text()`` / ``render_json()`` expose
the whole set.  Other components (WAL shipper, replica applier, router,
RPC server) register into the same registry for one exposition.
"""

from __future__ import annotations

import time

from ..observability.metrics import MetricsRegistry

__all__ = ["ServiceStats"]


class ServiceStats:
    """Registers one service's instruments and records into them.

    Each stats object owns a fresh registry, so independent services
    never mix counters; ``last_checkpoint_error`` is the one value kept
    outside it (text, not a number).
    """

    def __init__(self) -> None:
        self.last_checkpoint_error = ""
        self.registry = MetricsRegistry()
        r = self.registry
        # --- query / cache path -------------------------------------
        self._queries_served = r.counter(
            "koko_queries_served_total", "Queries served (string and pre-compiled)."
        )
        self._query_latency = r.histogram(
            "koko_query_latency_seconds", "End-to-end query latency."
        )
        self._result_cache_hits = r.counter(
            "koko_result_cache_hits_total", "Full-result cache hits."
        )
        self._result_cache_misses = r.counter(
            "koko_result_cache_misses_total", "Full-result cache misses."
        )
        self._plan_cache_hits = r.counter(
            "koko_plan_cache_hits_total", "Compiled-plan cache hits."
        )
        self._plan_cache_misses = r.counter(
            "koko_plan_cache_misses_total", "Compiled-plan cache misses."
        )
        self._result_cache_evictions = r.counter(
            "koko_result_cache_evictions_total",
            "Full-result cache evictions (stale = generation turnover).",
            labelnames=("reason",),
        )
        # --- ingest path --------------------------------------------
        self._documents_added = r.counter(
            "koko_documents_added_total", "Documents ingested."
        )
        self._documents_removed = r.counter(
            "koko_documents_removed_total", "Documents removed."
        )
        self._tokens_ingested = r.counter(
            "koko_tokens_ingested_total", "Annotated tokens ingested."
        )
        self._ingest_seconds = r.counter(
            "koko_ingest_seconds_total", "Wall seconds spent adding documents."
        )
        self._backpressure_waits = r.counter(
            "koko_ingest_backpressure_waits_total",
            "Ingest claims that blocked on the in-flight bytes bound.",
        )
        # --- per-shard partial caches (keys appear as shards are touched)
        self._shard_partials_reused = r.counter(
            "koko_shard_partials_reused_total",
            "Shard partial results served from the partial cache.",
        )
        self._shard_partials_computed = r.counter(
            "koko_shard_partials_computed_total",
            "Shard partial results computed (partial-cache misses).",
        )
        self._shard_partials_patched = r.counter(
            "koko_shard_partials_patched_total",
            "Computed shard partials patched from a stale partial, not recomputed whole.",
        )
        self._shard_cache_hits = r.counter(
            "koko_shard_cache_hits_total", "Per-shard partial-cache hits.", ("shard",)
        )
        self._shard_cache_misses = r.counter(
            "koko_shard_cache_misses_total", "Per-shard partial-cache misses.", ("shard",)
        )
        self._shard_cache_stale_evictions = r.counter(
            "koko_shard_cache_stale_evictions_total",
            "Per-shard partial-cache generation evictions.",
            ("shard",),
        )
        self._shard_cache_lru_evictions = r.counter(
            "koko_shard_cache_lru_evictions_total",
            "Per-shard partial-cache capacity evictions.",
            ("shard",),
        )
        # --- durability: WAL, group commit, checkpoints, recovery ----
        self._wal_records_appended = r.counter(
            "koko_wal_records_appended_total", "Records appended to the WAL."
        )
        self._wal_bytes_appended = r.counter(
            "koko_wal_bytes_appended_total", "Framed bytes appended to the WAL."
        )
        self._wal_fsyncs = r.counter(
            "koko_wal_fsyncs_total", "Group-commit fsyncs performed."
        )
        self._wal_records_synced = r.counter(
            "koko_wal_records_synced_total", "Records made durable by fsyncs."
        )
        self._wal_max_batch = r.gauge(
            "koko_wal_max_batch_records", "Largest group-commit batch observed."
        )
        self._wal_batch_histogram = r.histogram(
            "koko_wal_batch_records",
            "Group-commit batch sizes (power-of-two buckets).",
        )
        self._checkpoints_completed = r.counter(
            "koko_checkpoints_completed_total", "Snapshot checkpoints completed."
        )
        self._checkpoint_failures = r.counter(
            "koko_checkpoint_failures_total", "Background checkpoints that failed."
        )
        self._checkpoint_in_progress = r.gauge(
            "koko_checkpoint_in_progress",
            "1 while a checkpoint is running (a stuck checkpointer pins this at 1).",
        )
        self._last_checkpoint_unix = r.gauge(
            "koko_last_checkpoint_unix",
            "Unix time of the last completed checkpoint (0 = none yet).",
        )
        self._recovery_seconds = r.gauge(
            "koko_recovery_seconds", "Wall seconds the warm restart took."
        )
        self._recovered_documents = r.gauge(
            "koko_recovered_documents", "Documents restored by the warm restart."
        )
        self._replayed_wal_records = r.gauge(
            "koko_replayed_wal_records", "WAL records replayed on recovery."
        )
        self._recovered_torn_tail = r.gauge(
            "koko_recovered_torn_tail", "1 when recovery truncated a torn WAL tail."
        )

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_query(
        self,
        seconds: float,
        *,
        result_cache_hit: bool | None = False,
        plan_cache_hit: bool | None = None,
    ) -> None:
        """Account one served query.

        ``None`` for either flag means that cache was bypassed (the query
        arrived pre-parsed), which counts toward neither hit nor miss — so
        hit rates reflect only queries the caches could have served.
        """
        self._queries_served.inc()
        self._query_latency.observe(float(seconds))
        if result_cache_hit is True:
            self._result_cache_hits.inc()
        elif result_cache_hit is False:
            self._result_cache_misses.inc()
        if plan_cache_hit is True:
            self._plan_cache_hits.inc()
        elif plan_cache_hit is False:
            self._plan_cache_misses.inc()

    def record_ingest(
        self, seconds: float, tokens: int, *, removed: bool = False
    ) -> None:
        """Account one document added to (or removed from) the corpus.

        A removal counts the document only; an add also its tokens and
        its share of the write's wall seconds.
        """
        if removed:
            self._documents_removed.inc()
        else:
            self._documents_added.inc()
            self._tokens_ingested.inc(tokens)
            self._ingest_seconds.inc(float(seconds))

    def record_shard_partial(self, *, reused: bool, shard: int, patched: bool = False) -> None:
        """Account one shard partial served from (or stored into) its cache.

        The event lands in the service-wide reuse counters and in that
        shard's hit/miss family (reused = a cache hit for the shard).  A
        *patched* partial is a computed one (a miss) that started from the
        shard's stale partial.
        """
        if reused:
            self._shard_partials_reused.inc()
            self._shard_cache_hits.labels(shard).inc()
        else:
            self._shard_partials_computed.inc()
            self._shard_cache_misses.labels(shard).inc()
            if patched:
                self._shard_partials_patched.inc()

    def record_shard_cache_eviction(self, shard: int, stale: bool) -> None:
        """Account one eviction from shard *shard*'s partial-result cache."""
        if stale:
            self._shard_cache_stale_evictions.labels(shard).inc()
        else:
            self._shard_cache_lru_evictions.labels(shard).inc()

    def record_result_cache_eviction(self, stale: bool) -> None:
        """Account one eviction from the full-result cache."""
        self._result_cache_evictions.labels("stale" if stale else "lru").inc()

    def record_backpressure_wait(self) -> None:
        """Account one ingest claim that blocked on the in-flight bytes bound."""
        self._backpressure_waits.inc()

    def record_wal_append(self, frame_bytes: int) -> None:
        """Account one operation made durable in the write-ahead log."""
        self._wal_records_appended.inc()
        self._wal_bytes_appended.inc(frame_bytes)

    def record_wal_fsync(self, batch: int) -> None:
        """Account one group-commit fsync that made *batch* records durable."""
        self._wal_fsyncs.inc()
        self._wal_records_synced.inc(batch)
        self._wal_max_batch.set_max(batch)
        self._wal_batch_histogram.observe(int(batch))

    def record_checkpoint_started(self) -> None:
        """Mark one checkpoint as running (``koko_checkpoint_in_progress``)."""
        self._checkpoint_in_progress.inc()

    def record_checkpoint_finished(self) -> None:
        """Mark one running checkpoint as done (success, failure or no-op)."""
        self._checkpoint_in_progress.dec()

    def record_checkpoint(self) -> None:
        """Account one completed snapshot checkpoint."""
        self._checkpoints_completed.inc()
        self._last_checkpoint_unix.set(time.time())

    def record_checkpoint_failure(self, error: str) -> None:
        """Account one failed background checkpoint (WAL keeps growing)."""
        self._checkpoint_failures.inc()
        self.last_checkpoint_error = error

    def record_recovery(
        self, seconds: float, *, documents: int, replayed: int, torn_tail: bool
    ) -> None:
        """Account the warm restart that produced this service instance."""
        self._recovery_seconds.set(seconds)
        self._recovered_documents.set(documents)
        self._replayed_wal_records.set(replayed)
        self._recovered_torn_tail.set(1 if torn_tail else 0)
