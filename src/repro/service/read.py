"""The read path of :class:`~repro.service.service.KokoService`.

:class:`ReadPath` answers every query a service serves.  The service owns
one and wraps each call in tracing, accounting and the slow-op log; the
read path itself holds the caches and runs the KOKO pipeline (parse →
normalise → DPLI over the multi-index → GSP → extract → aggregate):

* **One cache probe** — a string query is keyed by its text and
  parameters, and its full result is looked up once, under the vector of
  per-shard generations (:meth:`ReadPath.cached`, which is also the
  service's non-blocking ``cached_result``).  A traced probe records a
  ``result_cache`` span; an untraced one opens none.
* **Plan caching** — each distinct query string is parsed and normalised
  once (:class:`~repro.service.cache.PlanCache`, ``PLAN_CACHE_SIZE``
  plans).  A pre-parsed query takes the same path with no cache key: no
  probe, no plan cache, no partials.
* **Result caching with per-shard generation stamps** — full query
  results are kept in an LRU stamped with the generation vector; in
  addition each shard's partial result is cached under that shard's own
  generation, so ingesting into shard *k* invalidates only shard *k*'s
  work — a repeat query computes one shard's partial and reuses the
  other N−1 cached partials.
* **One pipeline pass per query, on the request thread** — the shards a
  query cannot serve from their partial caches are read-locked in
  shard-id order and the stage pipeline runs **once** over their union
  (:meth:`~repro.indexing.sharding.ShardedIndexSet.view`; sentence ids
  are global, so the union's lookups are exact).  The pass's result is
  split per shard into the partial caches and merged with the reused
  partials deterministically (:func:`~repro.koko.results.merge_results`):
  stable tuple order, summed :class:`~repro.koko.results.StageTimings`.
  The stages are GIL-bound, so concurrency is across requests (the RPC
  server's executor), not across shards.

The generation vector is the service's own list, bumped in place by the
write side; the read path never copies it, so every stamp it takes is
current (a reopened service updates that same list from its snapshot).

Consistency note: a result served from the cache always corresponds to one
vector of shard generations.  An uncached query that overlaps an in-flight
ingest may observe the new document on its shard while other shards are
read earlier — the usual read-committed view of a partitioned store.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from itertools import chain

import numpy as np

from ..errors import DeadlineExceeded
from ..indexing.sharding import ShardedIndexSet
from ..koko.conditions import EvidenceResources
from ..koko.engine import CompiledQuery, compile_query
from ..koko.results import KokoResult, merge_results
from ..koko.stages import ExecutionContext, StagePipeline
from ..nlp.types import Document, Sentence
from ..observability.tracing import Span
from .cache import CacheEntry, PlanCache, ResultCache
from .ingest import Shard
from .stats import ServiceStats

__all__ = ["PLAN_CACHE_SIZE", "ReadPath", "check_deadline"]

#: compiled plans kept; no workload varies it
PLAN_CACHE_SIZE = 256


def check_deadline(deadline: float | None) -> None:
    """Raise :class:`DeadlineExceeded` when *deadline* has passed."""
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceeded("query deadline expired")


class _Partial:
    """One shard's part of a pipeline pass's result: a partial-cache value.

    Its sentence counts and timing share are known when the pass ends;
    its rows are split off the pass's columns
    (:meth:`~repro.koko.results.ResultColumns.take`, string tables
    compacted) on first reuse, so the parts of a query that is never
    repeated cost nothing to cache.  Once split, the part no longer holds
    the pass's result.  *lock* serialises first splits between readers.
    """

    __slots__ = ("_source", "_row_part", "_at", "_result", "_lock", "candidates", "share")

    def __init__(
        self,
        source: KokoResult,
        row_part,
        at: int,
        candidates: int,
        share: float,
        lock: threading.Lock,
    ) -> None:
        # without row_part every row is this part's: the pass's result is it
        self._source = None if row_part is None else source
        self._row_part = row_part
        self._at = at
        self._result: KokoResult | None = source if row_part is None else None
        self._lock = lock
        self.candidates = candidates
        self.share = share

    def result(self) -> KokoResult:
        """This shard's rows and counts as a result (split on first call)."""
        result = self._result
        if result is None:
            with self._lock:
                result = self._result
                if result is None:
                    source = self._source
                    result = self._result = KokoResult.from_columns(
                        source.columns.take(np.flatnonzero(self._row_part == self._at)),
                        source.timings.scaled(self.share),
                        self.candidates,
                        self.candidates,
                    )
                    self._source = self._row_part = None
        return result


class ReadPath:
    """The caches and the one execution path of a service's queries.

    *shards*, *index_set*, *by_sid* and *generations* are the service's
    own objects, shared, not copied: the write side splices shards and
    bumps *generations* in place, and every pass here reads them under
    the shards' read locks.  *cache_size* bounds the full-result cache
    and each shard's partial cache; *stats* receives cache outcomes.
    """

    def __init__(
        self,
        shards: list[Shard],
        index_set: ShardedIndexSet,
        by_sid: dict[int, tuple[Document, Sentence]],
        generations: list[int],
        resources: EvidenceResources,
        use_gsp: bool,
        cache_size: int,
        stats: ServiceStats,
    ) -> None:
        self._shards = shards
        self._index_set = index_set
        self._by_sid = by_sid
        self._generations = generations
        self._resources = resources
        self._use_gsp = use_gsp
        self._stats = stats
        self._pipeline = StagePipeline()
        self._plan_cache = PlanCache(PLAN_CACHE_SIZE)
        self._result_cache: ResultCache[KokoResult] = ResultCache(
            cache_size, on_evict=stats.record_result_cache_eviction
        )
        # per-(query, shard) partials, one cache per shard so each shard's
        # own generation stamps its entries and hit/miss/eviction counters
        # attribute cleanly — the unit of reuse that survives other shards'
        # ingests, and the raw data of the cache-sizing question
        self._shard_caches: list[ResultCache[_Partial]] = [
            ResultCache(
                cache_size, on_evict=partial(stats.record_shard_cache_eviction, shard_id)
            )
            for shard_id in range(len(shards))
        ]
        self._split_lock = threading.Lock()  # a cached part's first split

    def cached(
        self,
        query,
        threshold_override: float | None,
        keep_all_scores: bool,
        trace: Span | None = None,
    ) -> CacheEntry[KokoResult] | None:
        """The result-cache entry that answers *query* now, else None.

        The one probe of the full-result cache: it reads the generation
        vector and takes only the cache's own short mutex — no shard,
        ingest or WAL lock.  A pre-parsed query is never cached.  With
        *trace*, the lookup is recorded as a ``result_cache`` span.
        """
        if not isinstance(query, str):
            return None
        started = time.perf_counter() if trace is not None else 0.0
        entry = self._result_cache.entry(
            (query, threshold_override, keep_all_scores), tuple(self._generations)
        )
        if trace is not None:
            trace.record("result_cache", time.perf_counter() - started, hit=entry is not None)
        return entry

    def run(
        self,
        query,
        threshold_override: float | None = None,
        keep_all_scores: bool = False,
        explain: bool = False,
        trace: Span | None = None,
        deadline: float | None = None,
    ) -> tuple[KokoResult, bool | None, bool | None]:
        """Answer *query*: ``(result, result_cache_hit, plan_cache_hit)``.

        A hit of :meth:`cached` is the answer.  Otherwise a string query
        is compiled through the plan cache, executed (reusing fresh shard
        partials) and cached; a pre-parsed query is executed with no
        cache key.  A ``None`` flag means that cache was not consulted.
        *explain* re-executes even on a hit (the hit still counts: the
        cache could have served it) and bypasses the partials, so every
        shard runs every stage and the trace is complete.
        """
        entry = self.cached(query, threshold_override, keep_all_scores, trace)
        if entry is not None and not explain:
            return entry.value, True, None
        key = result_hit = plan_hit = None
        if isinstance(query, str):
            key = (query, threshold_override, keep_all_scores)
            stamp = tuple(self._generations)
            result_hit = entry is not None
            started = time.perf_counter()
            query, plan_hit = self._plan_cache.get_or_compile(query)
            if trace is not None:
                trace.record("plan_cache", time.perf_counter() - started, hit=plan_hit)
        result = self._execute(
            query,
            threshold_override,
            keep_all_scores,
            cache_key=None if explain else key,
            trace=trace,
            deadline=deadline,
        )
        if key is not None:
            self._result_cache.put(key, stamp, result)
        return result, result_hit, plan_hit

    def _execute(
        self,
        query,
        threshold_override: float | None,
        keep_all_scores: bool,
        cache_key=None,
        trace: Span | None = None,
        deadline: float | None = None,
    ) -> KokoResult:
        """Reuse fresh shard partials, compute the rest in one pass, merge.

        With a ``cache_key``, a shard whose generation is unchanged since
        a previous execution of the same query is served from its partial
        cache; the other shards — all of them without a key — are computed
        together by one :meth:`_run_pass`, whose result is merged with the
        reused partials as one part (every sentence lives in one part, so
        the merge's sort by sid interleaves them exactly).  With ``trace``,
        a ``shard_fanout`` span counts the shards executed and reused and
        holds the pass's span, and a ``merge`` span times the
        deterministic combine.
        """
        parts: list[KokoResult] = []
        missing: list[int] = []
        for shard_id, cache in enumerate(self._shard_caches):
            cached = (
                cache.get(cache_key, self._generations[shard_id])
                if cache_key is not None
                else None
            )
            if cached is None:
                missing.append(shard_id)
            else:
                self._stats.record_shard_partial(reused=True, shard=shard_id)
                parts.append(cached.result())
        fanout = (
            trace.child(
                "shard_fanout",
                shards=len(self._shards),
                executed=len(missing),
                reused=len(parts),
            )
            if trace is not None
            else None
        )
        if missing:
            # the plan cache hands over a CompiledQuery; anything else is
            # compiled here, once for the whole pass
            if not isinstance(query, CompiledQuery):
                query = compile_query(query)
            parts.append(
                self._run_pass(
                    missing,
                    query,
                    threshold_override,
                    keep_all_scores,
                    cache_key,
                    fanout,
                    deadline,
                )
            )
        if fanout is not None:
            fanout.finish()
        if trace is None:
            return merge_results(parts)
        with trace.span("merge"):
            return merge_results(parts)

    def _run_pass(
        self,
        shard_ids: list[int],
        plan: CompiledQuery,
        threshold_override: float | None,
        keep_all_scores: bool,
        cache_key=None,
        trace: Span | None = None,
        deadline: float | None = None,
    ) -> KokoResult:
        """Run the stage pipeline once over *shard_ids*; returns its result.

        The shards' read locks are taken in shard-id order (every pass
        takes them in the same order) and held for the whole pass, which
        runs each stage once over the union of the shards.  Under a
        *cache_key* the result is also split per shard (:meth:`_split`) and
        each part cached under the generation read under its lock.
        ``trace`` is the fan-out span the ``pass`` span hangs under.  An
        expired *deadline* abandons the pass on entry or between stages.
        """
        check_deadline(deadline)
        span = trace.child("pass", shard_ids=list(shard_ids)) if trace is not None else None
        shards = [self._shards[shard_id] for shard_id in shard_ids]
        locked: list[Shard] = []
        try:
            for shard in shards:
                shard.lock.acquire_read()
                locked.append(shard)
            # read under the read locks: exactly the generations this pass sees
            generations = [self._generations[shard_id] for shard_id in shard_ids]
            ctx = ExecutionContext(
                query=plan,
                corpus=chain.from_iterable(shard.corpus for shard in shards),
                indexes=self._index_set.view(shard_ids),
                by_sid=self._by_sid,
                resources=self._resources,
                use_gsp=self._use_gsp,
                threshold_override=threshold_override,
                keep_all_scores=keep_all_scores,
                trace=span,
                deadline=deadline,
            )
            result = self._pipeline.run(ctx)
        finally:
            for shard in locked:
                shard.lock.release_read()
        if cache_key is not None:
            for shard_id, generation, part in zip(
                shard_ids, generations, self._split(result, ctx.documents, shard_ids)
            ):
                self._shard_caches[shard_id].put(cache_key, generation, part)
                self._stats.record_shard_partial(reused=False, shard=shard_id)
        if span is not None:
            span.annotate(tuples=len(result), generations=generations)
            span.finish()
        return result

    def _split(
        self, result: KokoResult, documents, shard_ids: list[int]
    ) -> list[_Partial]:
        """One pass's *result* as one :class:`_Partial` per shard of *shard_ids*.

        *documents* are the pass's loaded candidate groups: they say which
        shard each candidate sentence (and so each row) belongs to, and
        extraction evaluates every candidate sentence, so the counts are
        exact.  A shard's stage timings are the pass's in proportion to its
        share of the candidate sentences (equal shares when there were none).
        """
        if len(shard_ids) == 1:
            count = result.candidate_sentences
            return [_Partial(result, None, 0, count, 1.0, self._split_lock)]
        position = {shard_id: at for at, shard_id in enumerate(shard_ids)}
        shard_of = self._index_set.shard_id
        part_of: dict[str, int] = {}  # candidate document -> its partial
        candidates = [0] * len(shard_ids)
        for document, sentences in documents:
            at = part_of[document.doc_id] = position[shard_of(document.doc_id)]
            candidates[at] += len(sentences)
        total = sum(candidates)
        columns = result.columns
        row_part = np.fromiter(
            map(part_of.__getitem__, columns.doc_ids), np.int64, len(columns.doc_ids)
        )[columns.index[0]]
        return [
            _Partial(
                result,
                row_part,
                at,
                count,
                count / total if total else 1 / len(shard_ids),
                self._split_lock,
            )
            for at, count in enumerate(candidates)
        ]
