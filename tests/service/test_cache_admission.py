"""Cost-aware result-cache admission (``result_cache_max_entry_bytes``).

One giant result can evict many small, frequently reused cache entries;
the admission bound keeps it out of the cache entirely (the caller still
gets the computed result).  These tests cover the :class:`ResultCache`
mechanics, the service knob that wires it up, and the registry counters that
make refusals observable.
"""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.service import KokoService, ResultCache

DOC_TEXTS = {
    "doc0": "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "doc1": "Anna ate some delicious cheesecake that she bought at a grocery store.",
}
QUERY = 'extract x:Entity from "t" if (/ROOT:{ a = //"ate" })'


def _service(**kwargs) -> KokoService:
    service = KokoService(use_default_vectors=False, **kwargs)
    for doc_id, text in DOC_TEXTS.items():
        service.add_document(text, doc_id)
    return service


# ----------------------------------------------------------------------
# ResultCache mechanics
# ----------------------------------------------------------------------
def test_bound_requires_an_estimator():
    with pytest.raises(ValueError, match="estimator"):
        ResultCache(max_entry_bytes=10)


def test_nonpositive_bound_rejected():
    with pytest.raises(ValueError, match="max_entry_bytes"):
        ResultCache(max_entry_bytes=0, entry_bytes=len)


def test_oversize_values_are_not_admitted():
    skips: list[int] = []
    cache: ResultCache[str] = ResultCache(
        max_entry_bytes=5,
        entry_bytes=len,
        on_admission_skip=lambda: skips.append(1),
    )
    cache.put("small", 1, "abc")
    cache.put("big", 1, "a" * 100)
    assert cache.get("small", 1) == "abc"
    assert cache.get("big", 1) is None
    assert len(cache) == 1
    assert len(skips) == 1


def test_get_or_compute_recomputes_refused_values():
    cache: ResultCache[str] = ResultCache(max_entry_bytes=5, entry_bytes=len)
    computed: list[int] = []

    def compute() -> str:
        computed.append(1)
        return "a" * 100

    value, hit = cache.get_or_compute("big", 1, compute)
    assert (value, hit) == ("a" * 100, False)
    _, hit = cache.get_or_compute("big", 1, compute)
    assert not hit  # refused on put, so the second call computes again
    assert len(computed) == 2


# ----------------------------------------------------------------------
# the service knob
# ----------------------------------------------------------------------
def test_service_rejects_nonpositive_knob():
    with pytest.raises(ServiceError, match="result_cache_max_entry_bytes"):
        KokoService(result_cache_max_entry_bytes=0)


def test_unbounded_service_serves_repeat_queries_from_cache():
    with _service() as service:
        first = [(t.doc_id, t.sid, t.values) for t in service.query(QUERY)]
        second = [(t.doc_id, t.sid, t.values) for t in service.query(QUERY)]
        assert first == second
        assert service.metrics.get("koko_result_cache_hits_total").value == 1
        assert service.metrics.get("koko_result_cache_admission_skips_total").value == 0


def test_tiny_bound_disables_caching_but_not_queries():
    # every KokoResult estimates >= 256 bytes, so a 1-byte bound refuses all
    with _service(result_cache_max_entry_bytes=1) as service:
        first = [(t.doc_id, t.sid, t.values) for t in service.query(QUERY)]
        second = [(t.doc_id, t.sid, t.values) for t in service.query(QUERY)]
        assert first == second
        assert first  # the query does match: results still flow
        assert service.metrics.get("koko_result_cache_hits_total").value == 0
        assert service.metrics.get("koko_result_cache_admission_skips_total").value >= 2


def test_sharded_partial_caches_count_their_own_refusals():
    with _service(shards=2, result_cache_max_entry_bytes=1) as service:
        service.query(QUERY)
        skips = service.metrics.get("koko_shard_cache_admission_skips_total").values()
        assert sum(skips.values()) >= 1
