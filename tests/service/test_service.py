"""Tests for the KokoService query-serving layer."""

from __future__ import annotations

import inspect
import threading

import pytest

from repro.errors import ServiceError
from repro.indexing.koko_index import KokoIndexSet
from repro.koko.engine import KokoEngine, compile_query
from repro.observability.metrics import histogram_quantiles
from repro.service import KokoService, PlanCache, ReadWriteLock, ResultCache
from repro.service.read import ReadPath
from repro.service.stats import ServiceStats

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)
CITY_QUERY = (
    'extract a:GPE from "input.txt" if () satisfying a '
    '(a SimilarTo "city" {1.0}) with threshold 0.3'
)

DOC_TEXTS = {
    "doc0": "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "doc1": "Anna ate some delicious cheesecake that she bought at a grocery store.",
}


def tuple_set(result):
    return {(t.doc_id, t.sid, t.values) for t in result}


def values(service, *names):
    """The current value of each named unlabelled instrument."""
    return [service.metrics.get(name).value for name in names]


CACHE_COUNTERS = (
    "koko_result_cache_hits_total",
    "koko_result_cache_misses_total",
    "koko_plan_cache_hits_total",
    "koko_plan_cache_misses_total",
)


@pytest.fixture()
def service():
    svc = KokoService(use_default_vectors=True)
    for doc_id, text in DOC_TEXTS.items():
        svc.add_document(text, doc_id)
    return svc


# ----------------------------------------------------------------------
# incremental ingestion equivalence (acceptance criterion, two corpora)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("corpus_fixture", ["paper_corpus", "cafe_corpus"])
def test_service_ingest_matches_from_scratch_build(
    corpus_fixture, request, pipeline, assert_equivalent_indexes
):
    corpus = request.getfixturevalue(corpus_fixture)
    svc = KokoService(pipeline=pipeline, use_default_vectors=False)
    for document in corpus:
        svc.add_document(document.text, document.doc_id)
    assert_equivalent_indexes(svc.indexes, KokoIndexSet().build(corpus))
    assert svc.document_ids() == [d.doc_id for d in corpus]


def test_service_results_match_plain_engine(service, pipeline):
    corpus = pipeline.annotate_corpus(DOC_TEXTS, name="reference")
    engine = KokoEngine(corpus, use_default_vectors=True)
    assert tuple_set(service.query(ENTITY_QUERY)) == tuple_set(engine.execute(ENTITY_QUERY))


# ----------------------------------------------------------------------
# caching
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sample_rate", [0.0, 1.0], ids=["untraced", "traced"])
def test_repeated_query_hits_result_cache(sample_rate):
    service = KokoService(use_default_vectors=True, trace_sample_rate=sample_rate)
    for doc_id, text in DOC_TEXTS.items():
        service.add_document(text, doc_id)
    first = service.query(ENTITY_QUERY)
    second = service.query(ENTITY_QUERY)
    assert second is first  # shared cache entry
    assert values(service, *CACHE_COUNTERS) == [1, 1, 0, 1]
    if sample_rate:
        # the one probe recorded its outcome in the hit's span tree
        (latest,) = service.trace_store.recent(1)
        (fragment,) = service.trace_store.get(latest["trace_id"])
        probes = [c for c in fragment["root"]["children"] if c["name"] == "result_cache"]
        assert [probe["attrs"]["hit"] for probe in probes] == [True]


def test_query_batch_runs_in_order_on_the_calling_thread(service, monkeypatch):
    threads = []
    run = ReadPath.run

    def spied(self, *args, **kwargs):
        threads.append(threading.get_ident())
        return run(self, *args, **kwargs)

    monkeypatch.setattr(ReadPath, "run", spied)
    queries = [ENTITY_QUERY, CITY_QUERY, ENTITY_QUERY]
    batch = service.query_batch(queries, threshold_override=0.0)
    assert threads == [threading.get_ident()] * len(queries)
    assert [tuple_set(result) for result in batch] == [
        tuple_set(service.query(query, threshold_override=0.0)) for query in queries
    ]
    assert batch[2] is batch[0]  # the repeat was a result-cache hit


def test_ingestion_invalidates_result_cache_but_not_plans(service):
    first = service.query(ENTITY_QUERY)
    service.add_document("Maria ate a delicious pie.", "doc2")
    second = service.query(ENTITY_QUERY)
    assert second is not first
    assert len(second) == len(first) + 1
    # the plan survived ingestion: re-execution reused it
    assert values(service, "koko_plan_cache_hits_total") == [1]
    assert values(service, "koko_result_cache_hits_total") == [0]


def test_removal_invalidates_and_unindexes(service):
    service.add_document("cities such as Beijing and Tokyo.", "cities")
    assert {t.value("a") for t in service.query(CITY_QUERY)} == {"Beijing", "Tokyo"}
    service.remove_document("cities")
    assert len(service.query(CITY_QUERY)) == 0
    assert values(service, "koko_documents_removed_total") == [1]


def test_distinct_parameters_cached_separately(service):
    strict = service.query(CITY_QUERY, threshold_override=0.99)
    lax = service.query(CITY_QUERY, threshold_override=0.0)
    assert values(service, "koko_result_cache_misses_total") == [2]
    assert strict is not lax


def test_compiled_query_bypasses_caches(service):
    plan = compile_query(ENTITY_QUERY)
    first = service.query(plan)
    second = service.query(plan)
    assert second is not first
    assert tuple_set(second) == tuple_set(first)
    # bypassed caches count toward neither hits nor misses
    assert values(service, *CACHE_COUNTERS) == [0, 0, 0, 0]


# ----------------------------------------------------------------------
# batched concurrent execution
# ----------------------------------------------------------------------
def test_query_batch_preserves_order_and_timings(service):
    queries = [ENTITY_QUERY, CITY_QUERY, ENTITY_QUERY, CITY_QUERY]
    results = service.query_batch(queries)
    assert len(results) == len(queries)
    assert tuple_set(results[0]) == tuple_set(results[2])
    assert tuple_set(results[1]) == tuple_set(results[3])
    for result in results:
        assert result.timings.total >= 0.0
    assert values(service, "koko_queries_served_total") == [4]
    assert service.query_batch([]) == []


def test_ingest_while_querying_is_safe(service):
    stop = threading.Event()
    errors: list[Exception] = []

    def reader():
        while not stop.is_set():
            try:
                service.query(ENTITY_QUERY)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    try:
        for index in range(8):
            service.add_document(f"Anna ate a delicious pie number {index}.", f"extra{index}")
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert errors == []
    # after the dust settles the corpus reflects every ingest
    result = service.query(ENTITY_QUERY)
    assert len(result) == 2 + 8


# ----------------------------------------------------------------------
# bookkeeping and errors
# ----------------------------------------------------------------------
def test_duplicate_and_unknown_doc_ids(service):
    with pytest.raises(ServiceError):
        service.add_document("again", "doc0")
    with pytest.raises(ServiceError):
        service.remove_document("missing")


def test_add_annotated_document_requires_fresh_sids(service, pipeline):
    document = pipeline.annotate(
        "Paolo visited Beijing.", doc_id="pre", first_sid=service.next_sid()
    )
    service.add_annotated_document(document)
    assert "pre" in service.document_ids()
    stale = pipeline.annotate("An old one.", doc_id="stale", first_sid=0)
    with pytest.raises(ServiceError):
        service.add_annotated_document(stale)
    with pytest.raises(ServiceError):
        service.add_annotated_document(document)  # duplicate id


def test_statistics_track_live_corpus(service):
    before = service.statistics()
    document = service.add_document("Paolo visited Beijing.", "doc2")
    after = service.statistics()
    assert after.sentences == before.sentences + len(document)
    assert after.tokens == before.tokens + document.num_tokens
    removed = service.remove_document("doc2")
    assert removed is document
    restored = service.statistics()
    assert restored.sentences == before.sentences
    assert restored.tokens == before.tokens


def test_stats_snapshot_and_percentiles(service):
    for _ in range(10):
        service.query(ENTITY_QUERY)
    snapshot = service.metrics.snapshot()
    assert snapshot["koko_queries_served_total"] == 10
    hits = snapshot["koko_result_cache_hits_total"]
    assert hits / (hits + snapshot["koko_result_cache_misses_total"]) == pytest.approx(0.9)
    assert snapshot["koko_documents_added_total"] == 2
    assert snapshot["koko_tokens_ingested_total"] > 0
    assert snapshot["koko_ingest_seconds_total"] > 0
    latency = service.metrics.get("koko_query_latency_seconds")
    estimates = histogram_quantiles(latency, (50.0, 95.0))
    assert 0.0 < estimates[50.0] <= estimates[95.0]
    with pytest.raises(ValueError):
        histogram_quantiles(latency, (0.0,))


# ----------------------------------------------------------------------
# cache and lock unit tests
# ----------------------------------------------------------------------
def test_result_cache_lru_eviction_and_generations():
    cache: ResultCache[str] = ResultCache(capacity=2)
    cache.put("a", 0, "A")
    cache.put("b", 0, "B")
    assert cache.get("a", 0) == "A"  # refreshes "a"
    cache.put("c", 0, "C")  # evicts "b"
    assert cache.get("b", 0) is None
    assert cache.get("a", 1) is None  # stale generation
    assert len(cache) == 1  # stale entry was evicted too


def test_plan_cache_compiles_once():
    cache = PlanCache(capacity=4)
    plan, hit = cache.get_or_compile(CITY_QUERY)
    assert not hit
    again, hit = cache.get_or_compile(CITY_QUERY)
    assert hit and again is plan
    assert len(cache) == 1


def test_read_write_lock_excludes_writers():
    lock = ReadWriteLock()
    events: list[str] = []
    with lock.read_locked():
        writer = threading.Thread(
            target=lambda: (lock.acquire_write(), events.append("wrote"), lock.release_write())
        )
        writer.start()
        writer.join(timeout=0.05)
        assert events == []  # writer blocked while a reader holds the lock
    writer.join(timeout=2.0)
    assert events == ["wrote"]


def test_service_stats_defaults():
    stats = ServiceStats()
    snapshot = stats.registry.snapshot()
    assert snapshot["koko_queries_served_total"] == 0
    assert snapshot["koko_result_cache_hits_total"] == 0
    assert snapshot["koko_plan_cache_hits_total"] == 0
    assert snapshot["koko_ingest_seconds_total"] == 0
    assert stats.last_checkpoint_error == ""
    latency = stats.registry.get("koko_query_latency_seconds")
    assert histogram_quantiles(latency) == {50.0: 0.0, 95.0: 0.0, 99.0: 0.0}


# ----------------------------------------------------------------------
# constructor surface: deleted knobs stay deleted, fixed sizes unchanged
# ----------------------------------------------------------------------
DELETED_KNOBS = {
    "annotation_workers": 2,
    "annotation_processes": True,
    "wal_sync": False,
    "sync_interval": 0.002,
    "result_cache_max_entry_bytes": 4096,
    "plan_cache_size": 16,
    "checkpoint_poll_seconds": 0.05,
    "trace_store_capacity": 16,
    "slow_op_log_capacity": 16,
    "slow_op_log_max_bytes": 4096,
}


@pytest.mark.parametrize("knob", sorted(DELETED_KNOBS))
def test_deleted_knob_is_refused_before_the_directory_exists(knob, tmp_path):
    with pytest.raises(TypeError, match=knob):
        KokoService(storage_dir=tmp_path / "svc", **{knob: DELETED_KNOBS[knob]})
    assert not (tmp_path / "svc").exists()


def test_constructor_takes_the_seventeen_kept_options():
    assert list(inspect.signature(KokoService.__init__).parameters)[1:] == [
        "pipeline",
        "name",
        "shards",
        "result_cache_size",
        "max_inflight_ingest_bytes",
        "storage_dir",
        "checkpoint_policy",
        "bootstrap_snapshot",
        "trace_sample_rate",
        "slow_query_ms",
        "slow_ingest_ms",
        "slow_op_log_path",
        "expander",
        "vectors",
        "dictionaries",
        "use_gsp",
        "use_default_vectors",
    ]


FIXED_SIZES = {
    "plan_cache": (lambda svc: svc._read._plan_cache._plans.capacity, 256),
    "trace_store": (lambda svc: svc._trace_store.capacity, 128),
    "slow_op_ring": (lambda svc: svc._slow_log._entries.maxlen, 256),
    "slow_op_file": (lambda svc: svc._slow_log._max_file_bytes, 16 * 1024 * 1024),
    "checkpoint_poll": (lambda svc: svc._checkpoint_scheduler._poll_seconds, 0.2),
}


@pytest.mark.parametrize("component", sorted(FIXED_SIZES))
def test_fixed_sizes_keep_the_former_defaults(component, tmp_path):
    read, expected = FIXED_SIZES[component]
    with KokoService(
        storage_dir=tmp_path / "svc",
        slow_op_log_path=tmp_path / "slow.jsonl",
        use_default_vectors=False,
    ) as service:
        assert read(service) == expected
