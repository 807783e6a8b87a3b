"""Shard-scaling benchmarks for the partitioned KokoService.

Two effects of hash-partitioned execution are measured across shard
counts (1/2/4/8 by default):

* **query throughput** — uncached (compiled-plan) queries run the stage
  pipeline once per shard, one slice after another on the calling thread
  (the pipeline is GIL-bound: shards are not read parallelism), so
  ``speedup_vs_first`` is at most 1 and prices the fixed per-slice cost
  that N shards add to a cold query;
* **ingest-while-querying latency** — ingestion write-locks one shard
  only, so reader latency under a concurrent ingest stream should drop
  as shards are added (at N=1 every reader stalls behind every ingest).

Run under pytest-benchmark like the other ``bench_*`` modules, or
directly to print a JSON summary for the perf trajectory:

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py [--smoke]

``--smoke`` shrinks corpus sizes and shard counts so CI can exercise the
script end-to-end in seconds.
"""

from __future__ import annotations

import threading
import time

from repro.evaluation.queries import SCALEUP_QUERIES
from repro.koko.engine import compile_query
from repro.nlp.types import Corpus
from repro.service import KokoService


def _service_over(corpus: Corpus, articles: int, shards: int) -> KokoService:
    service = KokoService(name=corpus.name, shards=shards)
    for document in corpus.documents[:articles]:
        service.add_document(document.text, f"bench-{document.doc_id}")
    return service


def run_query_throughput(
    corpus: Corpus,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    articles: int = 40,
    repeats: int = 3,
) -> dict:
    """Uncached queries/second per shard count (compiled plans bypass caches).

    ``speedup_vs_first`` is each count's rate over the first count's: the
    price of splitting one scan into N serial slices, not a parallel gain.
    """
    plans = [compile_query(text) for text in SCALEUP_QUERIES.values()]
    summary: dict = {"articles": articles, "queries": len(plans), "per_shards": {}}
    reference_rows: list | None = None
    for shards in shard_counts:
        service = _service_over(corpus, articles, shards)
        try:
            rows = [
                [(t.doc_id, t.sid, t.values) for t in service.query(plan)]
                for plan in plans
            ]
            if reference_rows is None:
                reference_rows = rows
            started = time.perf_counter()
            for _ in range(repeats):
                for plan in plans:
                    service.query(plan)
            elapsed = time.perf_counter() - started
            summary["per_shards"][shards] = {
                "seconds_per_pass": elapsed / repeats,
                "queries_per_second": repeats * len(plans) / max(elapsed, 1e-9),
                "results_identical": rows == reference_rows,
            }
        finally:
            service.close()
    base = summary["per_shards"][shard_counts[0]]["queries_per_second"]
    for shards, row in summary["per_shards"].items():
        row["speedup_vs_first"] = row["queries_per_second"] / max(base, 1e-9)
    return summary


def run_ingest_while_querying(
    corpus: Corpus,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    initial_articles: int = 30,
    query_threads: int = 3,
    duration_seconds: float = 1.5,
) -> dict:
    """Reader latency under a steady write churn, per shard count.

    A writer thread continuously adds and removes documents for
    ``duration_seconds`` while readers execute compiled plans (never
    cache-served), so every read takes the per-shard read locks and
    observes the write-side contention directly.  At N=1 each write
    stalls every reader; with more shards a write blocks only the readers'
    slice on one shard — the read p50/p95 is the sharding headline.
    """
    plans = [compile_query(text) for text in SCALEUP_QUERIES.values()]
    churn_texts = [d.text for d in corpus.documents[initial_articles:]] or [
        d.text for d in corpus.documents[:initial_articles]
    ]
    summary: dict = {
        "initial_articles": initial_articles,
        "query_threads": query_threads,
        "duration_seconds": duration_seconds,
        "per_shards": {},
    }
    for shards in shard_counts:
        service = _service_over(corpus, initial_articles, shards)
        try:
            stop = threading.Event()
            reader_errors: list[Exception] = []

            def reader(offset: int) -> None:
                position = offset
                while not stop.is_set():
                    try:
                        service.query(plans[position % len(plans)])
                    except Exception as exc:  # pragma: no cover - regression guard
                        reader_errors.append(exc)
                        return
                    position += 1

            threads = [
                threading.Thread(target=reader, args=(offset,))
                for offset in range(query_threads)
            ]
            for thread in threads:
                thread.start()
            ingest_latencies = []
            writes = 0
            try:
                deadline = time.monotonic() + duration_seconds
                while time.monotonic() < deadline:
                    text = churn_texts[writes % len(churn_texts)]
                    doc_id = f"churn-{writes}"
                    started = time.perf_counter()
                    service.add_document(text, doc_id)
                    ingest_latencies.append(time.perf_counter() - started)
                    service.remove_document(doc_id)
                    writes += 1
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            if reader_errors:
                raise reader_errors[0]
            ingest_latencies.sort()
            summary["per_shards"][shards] = {
                "writes": writes,
                "ingest_p50_seconds": ingest_latencies[len(ingest_latencies) // 2],
                "ingest_max_seconds": ingest_latencies[-1],
                "read_p50_seconds": service.stats.p50_query_seconds,
                "read_p95_seconds": service.stats.p95_query_seconds,
                "queries_served_during_churn": service.stats.queries_served,
            }
        finally:
            service.close()
    return summary


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_shard_scaling_query_throughput(benchmark, wiki_corpus):
    """Every shard count returns identical tuples; throughput stays sane."""
    result = benchmark.pedantic(
        run_query_throughput,
        kwargs={
            "corpus": wiki_corpus,
            "shard_counts": (1, 2, 4),
            "articles": 30,
            "repeats": 2,
        },
        iterations=1,
        rounds=1,
    )
    for shards, row in result["per_shards"].items():
        assert row["results_identical"], f"shard count {shards} changed results"
        assert row["queries_per_second"] > 0


def test_shard_scaling_ingest_while_querying(benchmark, wiki_corpus):
    """Sharded ingestion stays live under concurrent reads."""
    result = benchmark.pedantic(
        run_ingest_while_querying,
        kwargs={
            "corpus": wiki_corpus,
            "shard_counts": (1, 4),
            "initial_articles": 20,
            "duration_seconds": 0.75,
        },
        iterations=1,
        rounds=1,
    )
    for row in result["per_shards"].values():
        assert row["writes"] > 0
        assert row["queries_served_during_churn"] > 0
        assert row["read_p95_seconds"] >= row["read_p50_seconds"]


if __name__ == "__main__":
    import json
    import sys

    from repro.corpora.wikipedia import generate_wikipedia_corpus

    smoke = "--smoke" in sys.argv
    if smoke:
        wiki = generate_wikipedia_corpus(articles=24)
        throughput = run_query_throughput(
            wiki, shard_counts=(1, 2), articles=16, repeats=1
        )
        ingest = run_ingest_while_querying(
            wiki, shard_counts=(1, 2), initial_articles=12, duration_seconds=0.5
        )
    else:
        wiki = generate_wikipedia_corpus(articles=60)
        throughput = run_query_throughput(wiki)
        ingest = run_ingest_while_querying(wiki)
    print(
        json.dumps(
            {
                "smoke": smoke,
                "query_throughput": throughput,
                "ingest_while_querying": ingest,
            },
            indent=2,
        )
    )
