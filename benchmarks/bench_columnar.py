"""Columnar postings benchmarks: splice throughput, query-stage timings.

Two headline numbers for the columnar storage engine (flat numpy columns
behind the four KOKO indexes, see ``src/repro/indexing/columnar.py``):

* **splice throughput** — sentences indexed per second into a
  :class:`~repro.indexing.koko_index.KokoIndexSet`, object-backed versus
  columnar, over the pre-annotated HappyDB corpus (the paper's scale-up
  corpus; annotation cost is excluded — the generator runs the NLP
  pipeline up front, so the timed loop is pure index maintenance).  The
  columnar splice columnises each sentence once, memoises the hierarchy
  trie walks by tree shape, and flushes the whole batch as one columnar
  append per store; the object splice builds one :class:`Posting` per
  token and walks the tree per token.  The acceptance bar: **≥ 5×
  sentences/second** on the full run (smoke runs are too small to time
  meaningfully — ``bar_applicable`` stays honest).
* **query stage timings** — per-query LoadArticle and extract stage p50
  at 4 shards through a full :class:`~repro.service.KokoService` (which
  is columnar-only; tuple identity with the object-backed
  :class:`~repro.koko.engine.KokoEngine` oracle is a tier-1 test,
  ``tests/indexing/test_columnar_property.py``, not a runtime option).
  Queries execute as compiled plans, which the service never serves from
  the result cache, so every pass runs the real stage pipeline.

Run under pytest-benchmark like the other ``bench_*`` modules, or
directly to print a JSON summary for the perf trajectory:

    PYTHONPATH=src python benchmarks/bench_columnar.py [--smoke]

``--smoke`` shrinks corpus sizes and pass counts so CI can exercise both
measurements in seconds (numbers then mean nothing — the ≥5× bar is
only checked on full runs).
"""

from __future__ import annotations

import time

from repro.evaluation.queries import SCALEUP_QUERIES
from repro.indexing import KokoIndexSet
from repro.koko.engine import compile_query
from repro.nlp.types import Corpus
from repro.service import KokoService


# ----------------------------------------------------------------------
# splice throughput: object-backed vs columnar index maintenance
# ----------------------------------------------------------------------
def _time_build(corpus: Corpus, columnar: bool, repeats: int) -> dict:
    """Best-of-*repeats* wall time to index every sentence of *corpus*."""
    sentences = sum(1 for _ in corpus.all_sentences())
    tokens = sum(len(s) for _, s in corpus.all_sentences())
    best = float("inf")
    stats = None
    for _ in range(repeats):
        indexes = KokoIndexSet(columnar=columnar)
        started = time.perf_counter()
        indexes.build(corpus)
        best = min(best, time.perf_counter() - started)
        stats = indexes.statistics()
    return {
        "sentences": sentences,
        "tokens": tokens,
        "seconds": best,
        "sentences_per_second": sentences / max(best, 1e-9),
        "word_postings": stats.word_postings,
    }


def run_splice_throughput(corpus: Corpus, repeats: int = 3) -> dict:
    """Sentences/second through the full four-index splice, both backends.

    Also asserts both backends report identical posting counts — the
    cheap end-to-end sanity check that the speedup is not from dropping
    work.
    """
    object_backed = _time_build(corpus, columnar=False, repeats=repeats)
    columnar = _time_build(corpus, columnar=True, repeats=repeats)
    assert columnar["word_postings"] == object_backed["word_postings"]
    return {
        "repeats": repeats,
        "object": object_backed,
        "columnar": columnar,
        "splice_speedup": (
            columnar["sentences_per_second"]
            / max(object_backed["sentences_per_second"], 1e-9)
        ),
    }


# ----------------------------------------------------------------------
# query stage timings at 4 shards
# ----------------------------------------------------------------------
def _stage_percentiles(service: KokoService, plans, passes: int) -> dict:
    """p50 of the LoadArticle and extract stage seconds per query pass."""
    load_times: list[float] = []
    extract_times: list[float] = []
    totals: list[float] = []
    for _ in range(passes):
        for plan in plans:
            result = service.query(plan)
            load_times.append(result.timings.load_articles)
            extract_times.append(result.timings.extract)
            totals.append(result.timings.total)
    load_times.sort()
    extract_times.sort()
    totals.sort()
    return {
        "queries": len(totals),
        "load_articles_p50_seconds": load_times[len(load_times) // 2],
        "extract_p50_seconds": extract_times[len(extract_times) // 2],
        "total_p50_seconds": totals[len(totals) // 2],
    }


def run_query_stage_timings(
    corpus: Corpus, shards: int = 4, passes: int = 5
) -> dict:
    """LoadArticle/extract p50 per query over the pre-annotated *corpus*."""
    plans = [compile_query(text) for text in SCALEUP_QUERIES.values()]
    with KokoService(shards=shards) as service:
        for document in corpus.documents:
            service.add_annotated_document(document)
        return {
            "shards": shards,
            "passes": passes,
            **_stage_percentiles(service, plans, passes),
        }


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_columnar_splice_faster(benchmark, happy_corpus):
    """Columnar splice beats the object splice on a pre-annotated corpus."""
    result = benchmark.pedantic(
        run_splice_throughput,
        kwargs={"corpus": happy_corpus, "repeats": 1},
        iterations=1,
        rounds=1,
    )
    assert result["splice_speedup"] > 1.0


def test_columnar_query_stages(benchmark, happy_corpus):
    """The 4-shard service runs every scale-up plan through the stages."""
    result = benchmark.pedantic(
        run_query_stage_timings,
        kwargs={"corpus": happy_corpus, "shards": 4, "passes": 2},
        iterations=1,
        rounds=1,
    )
    assert result["queries"] > 0


if __name__ == "__main__":
    import json
    import sys

    from repro.corpora.happydb import generate_happydb_corpus

    smoke = "--smoke" in sys.argv
    if smoke:
        happy = generate_happydb_corpus(moments=60)
        splice = run_splice_throughput(happy, repeats=1)
        stages = run_query_stage_timings(happy, shards=4, passes=2)
    else:
        happy = generate_happydb_corpus(moments=600)
        splice = run_splice_throughput(happy, repeats=5)
        stages = run_query_stage_timings(happy, shards=4, passes=5)
    # timing a few dozen smoke sentences measures interpreter warm-up, not
    # the splice; the 5x bar only means something at full corpus scale
    splice["bar_applicable"] = not smoke
    summary = {"smoke": smoke, "splice_throughput": splice, "query_stages": stages}
    print(json.dumps(summary, indent=2))
    if splice["bar_applicable"] and splice["splice_speedup"] < 5.0:
        sys.exit(
            f"columnar splice speedup {splice['splice_speedup']:.2f}x "
            "is below the 5x bar"
        )
