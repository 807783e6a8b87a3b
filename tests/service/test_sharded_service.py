"""Shard-count invariance and concurrency tests for the sharded service.

The load-bearing property: a service with any shard count returns
tuple-for-tuple identical results — same order, same values, same scores —
to a plain unsharded :class:`KokoEngine` over the same corpus, including
after interleaved add/remove ingestion.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServiceError
from repro.indexing.sharding import ShardedIndexSet
from repro.koko.engine import KokoEngine
from repro.nlp.types import Corpus
from repro.service import KokoService

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)
CITY_QUERY = (
    'extract a:GPE from "input.txt" if () satisfying a '
    '(a SimilarTo "city" {1.0}) with threshold 0.3'
)

TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "cities in asian countries such as Beijing and Tokyo.",
    "Paolo visited Beijing and ate a delicious croissant.",
    "Maria ate a delicious pie in Tokyo.",
    "The barista in Osaka served a delicious espresso.",
]


def as_rows(result):
    """Full ordered tuple content, scores included (byte-identical check)."""
    return [(t.doc_id, t.sid, t.values, t.scores) for t in result]


def reference_engine_for(mirror: list) -> KokoEngine:
    """An unsharded engine over the exact documents a service ingested."""
    return KokoEngine(Corpus(name="reference", documents=list(mirror)))


# ----------------------------------------------------------------------
# shard-count invariance (acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize(
    "corpus_fixture,queries",
    [
        ("paper_corpus", [ENTITY_QUERY, CITY_QUERY]),
        ("cafe_corpus", ["CAFE_QUERY"]),
    ],
)
def test_sharded_service_matches_unsharded_engine(
    corpus_fixture, queries, shards, request
):
    corpus = request.getfixturevalue(corpus_fixture)
    if queries == ["CAFE_QUERY"]:
        from repro.evaluation.queries import CAFE_QUERY

        queries = [CAFE_QUERY]
    with KokoService(shards=shards) as service:
        for document in corpus:
            service.add_annotated_document(document)
        engine = KokoEngine(corpus)
        for query in queries:
            assert as_rows(service.query(query)) == as_rows(engine.execute(query))
            assert as_rows(
                service.query(query, threshold_override=0.0, keep_all_scores=True)
            ) == as_rows(
                engine.execute(query, threshold_override=0.0, keep_all_scores=True)
            )


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_invariance_under_interleaved_add_remove(shards):
    """Property-style: a mixed add/remove history never breaks invariance."""
    with KokoService(shards=shards) as service:
        mirror: dict[str, object] = {}

        def add(index):
            mirror[f"doc{index}"] = service.add_document(TEXTS[index], f"doc{index}")

        def remove(index):
            service.remove_document(f"doc{index}")
            del mirror[f"doc{index}"]

        def check():
            engine = reference_engine_for(list(mirror.values()))
            for query in (ENTITY_QUERY, CITY_QUERY):
                assert as_rows(service.query(query)) == as_rows(engine.execute(query))

        for index in range(4):
            add(index)
        check()
        remove(1)
        remove(3)
        check()
        add(4)
        add(5)
        check()
        remove(0)
        check()
        # re-ingesting a removed id gets fresh sentence ids and still matches
        mirror["doc1"] = service.add_document(TEXTS[1], "doc1")
        check()


def test_sharded_sid_order_matches_ingest_order():
    """Merged tuples come back in global sentence-id (ingest) order."""
    with KokoService(shards=4) as service:
        for index, text in enumerate(TEXTS):
            service.add_document(text, f"doc{index}")
        result = service.query(ENTITY_QUERY)
        sids = [t.sid for t in result]
        assert sids == sorted(sids)
        assert len(result) > 0


# ----------------------------------------------------------------------
# sharded ingest/read concurrency
# ----------------------------------------------------------------------
def test_sharded_ingest_while_querying_is_safe():
    with KokoService(shards=4) as service:
        for index, text in enumerate(TEXTS[:2]):
            service.add_document(text, f"seed{index}")
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
                service.add_document(
                    f"Anna ate a delicious pie number {index}.", f"extra{index}"
                )
            service.remove_document("extra0")
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []
        result = service.query(ENTITY_QUERY)
        assert len(result) == 2 + 7  # both seeds match, extras minus the removed one


def test_caching_still_works_when_sharded():
    with KokoService(shards=2) as service:
        for index, text in enumerate(TEXTS[:3]):
            service.add_document(text, f"doc{index}")
        first = service.query(ENTITY_QUERY)
        second = service.query(ENTITY_QUERY)
        assert second is first  # shared generation-stamped cache entry
        service.add_document(TEXTS[3], "doc3")
        third = service.query(ENTITY_QUERY)
        assert third is not first
        assert service.stats.plan_cache_hits == 1  # the plan survived ingestion


# ----------------------------------------------------------------------
# bookkeeping, stats, lifecycle
# ----------------------------------------------------------------------
def test_sharded_bookkeeping_and_stats():
    with KokoService(shards=4) as service:
        assert service.shard_count == 4
        assert isinstance(service.indexes, ShardedIndexSet)
        for index, text in enumerate(TEXTS):
            document = service.add_document(text, f"doc{index}")
            assert service.shard_of(document.doc_id) < 4
        assert service.document_ids() == [f"doc{i}" for i in range(len(TEXTS))]
        assert len(service) == len(TEXTS)

        merged = service.statistics()
        per_shard = service.statistics_by_shard()
        assert len(per_shard) == 4
        assert merged.sentences == sum(s.sentences for s in per_shard)
        assert merged.tokens == sum(s.tokens for s in per_shard)

        service.query(ENTITY_QUERY)
        breakdown = service.stats.shard_breakdown()
        assert sum(b["documents_added"] for b in breakdown.values()) == len(TEXTS)
        assert sum(b["queries"] for b in breakdown.values()) == 4  # one per shard
        assert service.stats.snapshot()["per_shard"] == breakdown

        # per-engine access: single-engine accessors refuse on sharded services
        assert len(service.engines) == 4 and len(service.corpora) == 4
        with pytest.raises(ServiceError):
            service.engine
        with pytest.raises(ServiceError):
            service.corpus


def test_unsharded_accessors_and_defaults():
    service = KokoService()
    assert service.shard_count == 1
    assert not isinstance(service.indexes, ShardedIndexSet)
    assert service.engine is service.engines[0]
    assert service.corpus is service.corpora[0]
    service.close()
    service.close()  # idempotent

    sharded = KokoService(shards=4)
    assert sharded.shard_count == 4
    sharded.close()
    sharded.close()

    with pytest.raises(ServiceError):
        KokoService(shards=0)


def test_querying_a_closed_sharded_service_raises_service_error():
    service = KokoService(shards=2)
    service.add_document(TEXTS[0], "doc0")
    service.close()
    with pytest.raises(ServiceError, match="closed"):
        service.query(ENTITY_QUERY)


def test_duplicate_and_unknown_ids_when_sharded():
    with KokoService(shards=2) as service:
        service.add_document(TEXTS[0], "doc0")
        with pytest.raises(ServiceError):
            service.add_document("again", "doc0")
        with pytest.raises(ServiceError):
            service.remove_document("missing")
        # sid freshness checks still apply across shards
        stale = service.pipeline.annotate("An old one.", doc_id="stale", first_sid=0)
        with pytest.raises(ServiceError):
            service.add_annotated_document(stale)
