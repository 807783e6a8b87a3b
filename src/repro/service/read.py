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
  generation, so ingesting into shard *k* touches only shard *k*'s
  work — a repeat query reuses the other N−1 cached partials.
* **Patching, not recomputing** — a stale partial is brought up to date
  from the shard's change log (:meth:`~repro.service.ingest.Shard.changes_since`):
  the rows of documents removed since are dropped and only the documents
  added since are computed.  Every clause a score depends on reads one
  document, so a document's rows do not depend on its neighbours.  A
  partial the log no longer reaches (or a shard with none) is computed
  whole — the same pass, with every document of the shard "added".
* **One pipeline pass per query, on the request thread** — the shards a
  query cannot serve from their partial caches as they stand are
  read-locked in shard-id order and the stage pipeline runs **once** over
  the union of what they need computed
  (:meth:`~repro.indexing.sharding.ShardedIndexSet.view`; sentence ids
  are global, so the union's lookups are exact); a query whose stale
  shards only lost documents runs no pass.  Every part — reused,
  patched, computed — is merged once, deterministically
  (:func:`~repro.koko.results.merge_results`): stable tuple order, summed
  :class:`~repro.koko.results.StageTimings`.  The refreshed shards'
  partials are cached as parts of that answer.  The stages are
  GIL-bound, so concurrency is across requests (the RPC server's
  executor), not across shards.

The generation vector is the service's own list, bumped in place by the
write side; the read path never copies it, so every stamp it takes is
current (a reopened service updates that same list from its snapshot).

Consistency note: a result served from the cache always corresponds to one
vector of shard generations.  An uncached query that overlaps an in-flight
ingest may observe the new document on its shard while other shards are
read earlier — the usual read-committed view of a partitioned store.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import chain

import numpy as np

from ..errors import DeadlineExceeded
from ..indexing.sharding import ShardedIndexSet
from ..koko.conditions import EvidenceResources
from ..koko.engine import CompiledQuery, compile_query
from ..koko.results import KokoResult, StageTimings, merge_results
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
    """One shard's part of a query's answer: a partial-cache value.

    *documents* maps the doc id of each of the shard's candidate documents
    to ``(document, candidate sentences)`` — what a later write to the
    shard is checked against, by document identity — and *timings* is the
    shard's share of the work.  The part's rows are the rows of *source*
    (the answer it was cached with) whose document is one of *documents*.
    Nothing is split off when a part is cached or reused: a query takes
    the rows it needs from each answer its parts come from in one go
    (:func:`_gather`), so the parts of a query that is never repeated cost
    nothing to cache, and the parts of one answer reused together cost
    one take, or none when they still cover all of its rows.
    """

    __slots__ = ("source", "documents", "candidates", "timings")

    def __init__(
        self,
        source: KokoResult,
        documents: dict[str, tuple[Document, int]],
        timings: StageTimings,
        candidates: int | None = None,
    ) -> None:
        self.source = source
        self.documents = documents
        self.candidates = (
            sum(count for _, count in documents.values()) if candidates is None else candidates
        )
        self.timings = timings

    def within(self, source: KokoResult) -> "_Partial":
        """This part with its rows read from *source*, an answer that holds them."""
        return _Partial(source, self.documents, self.timings, self.candidates)


def _gather(parts: list[_Partial]) -> list[KokoResult]:
    """The rows and counts of *parts*, one result per answer they come from.

    The parts cached with one answer are selected from it together: one
    :meth:`~repro.koko.results.ResultColumns.take` (string tables
    compacted), which hands the columns back as they are when the parts
    still cover every row.
    """
    by_source: dict[int, list[_Partial]] = {}
    for part in parts:
        by_source.setdefault(id(part.source), []).append(part)
    results = []
    for group in by_source.values():
        documents, timings = group[0].documents, group[0].timings
        if len(group) > 1:
            documents, timings = {}, StageTimings()
            for part in group:
                documents.update(part.documents)
                timings.accumulate(part.timings)
        candidates = sum(part.candidates for part in group)
        columns = group[0].source.columns
        mine = np.fromiter(
            map(documents.__contains__, columns.doc_ids), bool, len(columns.doc_ids)
        )
        results.append(
            KokoResult.from_columns(
                columns.take(np.flatnonzero(mine[columns.index[0]])),
                timings,
                candidates,
                candidates,
            )
        )
    return results


class _Refresh:
    """One shard the cache could not serve as it stands, read under its lock.

    *kept* is the part of the shard's stale partial that no write has
    touched since — its source, its untouched documents and their share
    of its timings — or None when there is no usable partial.  *fresh*
    lists the documents written since, which the pass computes, or is
    None when the pass covers the whole shard.  *owned* is filled by the
    pass: the candidate documents it found in the shard.
    """

    __slots__ = ("shard_id", "generation", "kept", "fresh", "owned")

    def __init__(
        self,
        shard_id: int,
        generation: int,
        kept: _Partial | None = None,
        fresh: list[Document] | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.generation = generation
        self.kept = kept
        self.fresh = fresh
        self.owned: dict[str, tuple[Document, int]] = {}

    @property
    def runs(self) -> bool:
        """Whether the pass computes any of this shard's documents."""
        return self.fresh is None or bool(self.fresh)


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
        """Reuse fresh shard partials, bring the rest up to date, merge once.

        With a ``cache_key``, a shard whose generation is unchanged since
        a previous execution of the same query is served from its partial
        cache.  Every other shard — all of them without a key — is brought
        up to date by :meth:`_refresh`: a stale partial whose shard log
        still reaches back to it is patched (rows of removed documents
        dropped, added documents computed), anything else is computed
        whole.  All the parts are merged in one
        :func:`~repro.koko.results.merge_results` (every sentence lives in
        one part, so the merge's sort by sid interleaves them exactly), and
        every shard's partial is then cached as a part of that answer.
        With ``trace``, a ``shard_fanout`` span counts the shards executed
        (computed or patched), reused and patched and holds the pass's
        span, and a ``merge`` span times the deterministic combine.
        """
        reused: list[tuple[int, CacheEntry[_Partial]]] = []
        stale: list[tuple[int, CacheEntry[_Partial] | None]] = []
        for shard_id, cache in enumerate(self._shard_caches):
            entry = cache.latest(cache_key) if cache_key is not None else None
            if entry is not None and entry.generation == self._generations[shard_id]:
                self._stats.record_shard_partial(reused=True, shard=shard_id)
                reused.append((shard_id, entry))
            else:
                stale.append((shard_id, entry))
        parts = [entry.value for _, entry in reused]
        fanout = (
            trace.child(
                "shard_fanout",
                shards=len(self._shards),
                executed=len(stale),
                reused=len(reused),
            )
            if trace is not None
            else None
        )
        refreshed: list[_Refresh] = []
        result = None
        if stale:
            # the plan cache hands over a CompiledQuery; anything else is
            # compiled here, once for the whole pass
            if not isinstance(query, CompiledQuery):
                query = compile_query(query)
            refreshed, result = self._refresh(
                stale, query, threshold_override, keep_all_scores, fanout, deadline
            )
            parts.extend(refresh.kept for refresh in refreshed if refresh.kept is not None)
        if fanout is not None:
            fanout.annotate(patched=sum(refresh.kept is not None for refresh in refreshed))
            fanout.finish()
        if trace is None:
            answer = self._merge(parts, result)
        else:
            with trace.span("merge"):
                answer = self._merge(parts, result)
        if cache_key is not None and refreshed:
            self._cache_parts(cache_key, answer, refreshed, result)
            # the reused parts move to this answer too, under their own
            # stamps: the next run finds every part of the query in one
            # answer and takes from it once, or not at all
            for shard_id, entry in reused:
                self._shard_caches[shard_id].put(
                    cache_key, entry.generation, entry.value.within(answer)
                )
        return answer

    @staticmethod
    def _merge(parts: list[_Partial], result: KokoResult | None) -> KokoResult:
        """The rows of *parts* (:func:`_gather`) and the pass's *result*, merged once."""
        gathered = _gather(parts)
        if result is not None:
            gathered.append(result)
        return merge_results(gathered)

    def _refresh(
        self,
        stale: list[tuple[int, CacheEntry[_Partial] | None]],
        plan: CompiledQuery,
        threshold_override: float | None,
        keep_all_scores: bool,
        trace: Span | None = None,
        deadline: float | None = None,
    ) -> tuple[list[_Refresh], KokoResult | None]:
        """Read the *stale* shards under their read locks; run one pass.

        The locks are taken in shard-id order (every query takes them in
        the same order) and held while each shard's generation and change
        log are read (:meth:`_plan`) and while one :meth:`_run_pass`
        computes, over the union of those shards, every shard with no
        usable partial and the added documents of the others.  A shard
        that only lost documents adds nothing to the pass, and with no
        such work there is no pass.  Returns the shards' plans, each with
        the candidate documents the pass found in it, and the pass's result
        (None without a pass).  An expired *deadline* abandons the refresh
        on entry or between stages.
        """
        check_deadline(deadline)
        shards = [self._shards[shard_id] for shard_id, _ in stale]
        locked: list[Shard] = []
        try:
            for shard in shards:
                shard.lock.acquire_read()
                locked.append(shard)
            refreshed = [
                self._plan(shard_id, shard, entry)
                for (shard_id, entry), shard in zip(stale, shards)
            ]
            work = [(refresh, shard) for refresh, shard in zip(refreshed, shards) if refresh.runs]
            if not work:
                return refreshed, None
            result, owned = self._run_pass(
                [refresh.shard_id for refresh, _ in work],
                plan,
                threshold_override,
                keep_all_scores,
                [shard for _, shard in work],
                [refresh.fresh for refresh, _ in work],
                trace,
                deadline,
            )
        finally:
            for shard in locked:
                shard.lock.release_read()
        for (refresh, _), mine in zip(work, owned):
            refresh.owned = mine
        return refreshed, result

    def _plan(
        self, shard_id: int, shard: Shard, entry: CacheEntry[_Partial] | None
    ) -> _Refresh:
        """What bringing *shard* up to date takes (its read lock held).

        A cached partial is a usable base when the shard's change log
        (:meth:`Shard.changes_since`) still covers every write since the
        partial's generation.  Walking those writes in order, a removed
        document leaves the base's kept documents only when it is the very
        document the base holds under that id, and an added one is fresh
        until a later removal — so a document re-added under the same id
        never keeps the old rows, and the kept part keeps the base's
        timings in proportion to the candidate sentences it keeps.  A
        stale partial past the log's reach is counted as a stale eviction
        and recomputed whole.
        """
        generation = self._generations[shard_id]
        window = None if entry is None else shard.changes_since(entry.generation)
        if window is None:
            if entry is not None:
                self._stats.record_shard_cache_eviction(shard_id, True)
            return _Refresh(shard_id, generation)
        base = entry.value
        documents = base.documents
        fresh: dict[str, Document] = {}
        for added, document in window:
            doc_id = document.doc_id
            if added:
                fresh[doc_id] = document
                continue
            fresh.pop(doc_id, None)
            held = documents.get(doc_id)
            if held is not None and held[0] is document:
                if documents is base.documents:
                    documents = dict(documents)  # copied on the first removal
                del documents[doc_id]
        kept = base
        if documents is not base.documents:
            kept = _Partial(base.source, documents, base.timings)
            if base.candidates:
                kept.timings = base.timings.scaled(kept.candidates / base.candidates)
        return _Refresh(shard_id, generation, kept, list(fresh.values()))

    def _run_pass(
        self,
        shard_ids: list[int],
        plan: CompiledQuery,
        threshold_override: float | None,
        keep_all_scores: bool,
        shards: list[Shard],
        fresh: list[list[Document] | None],
        trace: Span | None = None,
        deadline: float | None = None,
    ) -> tuple[KokoResult, list[dict[str, tuple[Document, int]]]]:
        """Run the stage pipeline once over *shard_ids*, their locks held.

        A shard with a *fresh* list takes part with those documents only:
        the view's lookups answer for their sentences alone
        (:meth:`~repro.indexing.sharding.ShardedIndexSet.view`) and they
        are its part of the corpus LoadStage falls back to; a shard with
        ``None`` takes part whole.  Returns the result and, per shard, its
        candidate documents as ``doc id -> (document, candidate
        sentences)``: extraction evaluates every candidate sentence, so
        the counts are exact, and a document belongs to the one pass shard
        that holds it.  ``trace`` is the fan-out span the ``pass`` span
        hangs under.
        """
        span = trace.child("pass", shard_ids=list(shard_ids)) if trace is not None else None
        limits = [
            None
            if documents is None
            else np.sort(
                np.fromiter(
                    (sentence.sid for document in documents for sentence in document),
                    np.int64,
                )
            )
            for documents in fresh
        ]
        ctx = ExecutionContext(
            query=plan,
            corpus=chain.from_iterable(
                shard.corpus if documents is None else documents
                for shard, documents in zip(shards, fresh)
            ),
            indexes=self._index_set.view(shard_ids, limits),
            by_sid=self._by_sid,
            resources=self._resources,
            use_gsp=self._use_gsp,
            threshold_override=threshold_override,
            keep_all_scores=keep_all_scores,
            trace=span,
            deadline=deadline,
        )
        result = self._pipeline.run(ctx)
        owned: list[dict[str, tuple[Document, int]]] = [{} for _ in shards]
        for document, sentences in ctx.documents:
            doc_id = document.doc_id
            for mine, shard in zip(owned, shards):
                if shard.documents.get(doc_id) is document:
                    mine[doc_id] = (document, len(sentences))
                    break
        if span is not None:
            span.annotate(
                tuples=len(result),
                generations=[self._generations[shard_id] for shard_id in shard_ids],
            )
            span.finish()
        return result, owned

    def _cache_parts(
        self,
        cache_key,
        answer: KokoResult,
        refreshed: list[_Refresh],
        result: KokoResult | None,
    ) -> None:
        """Cache each refreshed shard's partial as a part of *answer*.

        A shard's documents are its kept part's plus those it owns in the
        pass, and its timings the kept part's plus its share of the pass's
        in proportion to its candidate sentences (equal shares when the
        pass had none).  Each part is stamped with the generation its
        shard had under the lock.
        """
        runs = sum(refresh.runs for refresh in refreshed)
        for refresh in refreshed:
            kept, mine = refresh.kept, refresh.owned
            if not refresh.runs:  # it only lost documents
                part = kept.within(answer)
            else:
                count = sum(candidates for _, candidates in mine.values())
                total = result.candidate_sentences
                timings = result.timings.scaled(count / total if total else 1 / runs)
                if kept is None:
                    part = _Partial(answer, mine, timings, count)
                else:
                    part = _Partial(
                        answer,
                        {**kept.documents, **mine},
                        timings.accumulate(kept.timings),
                        kept.candidates + count,
                    )
            self._shard_caches[refresh.shard_id].put(cache_key, refresh.generation, part)
            self._stats.record_shard_partial(
                reused=False, shard=refresh.shard_id, patched=kept is not None
            )
