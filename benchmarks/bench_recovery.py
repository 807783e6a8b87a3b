"""Durability benchmarks: cold rebuild vs. warm restart, WAL replay throughput.

Two headline numbers for the persistence subsystem:

* **cold vs. warm** — a cold rebuild re-runs NLP annotation and index
  construction for the whole corpus; a warm restart
  (``KokoService.open``) loads the latest snapshot — the pickled corpus
  plus each shard's index columns, read straight back into the columnar
  stores — and replays nothing.  The acceptance
  bar is warm ≥ 5× faster than cold, with tuple-identical query results.
* **WAL replay throughput** — after a simulated crash (fsynced log, no
  checkpoint), recovery replays the tail record by record; this measures
  documents/second through the replay path, which bounds worst-case
  restart time between checkpoints.

Run under pytest-benchmark like the other ``bench_*`` modules, or
directly to print a JSON summary for the perf trajectory:

    PYTHONPATH=src python benchmarks/bench_recovery.py [--smoke]

``--smoke`` shrinks corpus sizes so CI can exercise the script in seconds.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from repro.evaluation.queries import SCALEUP_QUERIES
from repro.nlp.types import Corpus
from repro.persistence import CheckpointPolicy
from repro.service import KokoService


def _rows(result):
    return [(t.doc_id, t.sid, t.values) for t in result]


def _crash(service: KokoService) -> None:
    """Abandon a durable service as a crash would: fsynced WAL, no checkpoint."""
    if service._checkpoint_scheduler is not None:
        service._checkpoint_scheduler.stop()
        service._checkpoint_scheduler = None
    if service._wal is not None:
        service._wal.close()


def run_cold_vs_warm(
    corpus: Corpus, articles: int = 40, shards: int = 4, storage_dir: str | None = None
) -> dict:
    """Seconds to rebuild from raw text vs. to reopen the durable directory."""
    texts = [document.text for document in corpus.documents[:articles]]
    queries = list(SCALEUP_QUERIES.values())
    root = Path(storage_dir) if storage_dir else Path(tempfile.mkdtemp(prefix="koko-bench-"))
    target = root / "service"
    try:
        cold_started = time.perf_counter()
        service = KokoService(shards=shards, storage_dir=str(target))
        for index, text in enumerate(texts):
            service.add_document(text, f"bench-{index}")
        cold_seconds = time.perf_counter() - cold_started
        reference = [_rows(service.query(q)) for q in queries]
        service.close()

        warm_started = time.perf_counter()
        warm = KokoService.open(str(target))
        warm_seconds = time.perf_counter() - warm_started
        try:
            identical = [_rows(warm.query(q)) for q in queries] == reference
            replayed = warm.stats.replayed_wal_records
            recovered = warm.stats.recovered_documents
        finally:
            warm.close()
        return {
            "articles": len(texts),
            "shards": shards,
            "cold_rebuild_seconds": cold_seconds,
            "warm_restart_seconds": warm_seconds,
            "warm_speedup": cold_seconds / max(warm_seconds, 1e-9),
            "results_identical": identical,
            "recovered_documents": recovered,
            "replayed_wal_records": replayed,
        }
    finally:
        if storage_dir is None:
            shutil.rmtree(root, ignore_errors=True)


def run_wal_replay_throughput(
    corpus: Corpus, articles: int = 40, shards: int = 2, storage_dir: str | None = None
) -> dict:
    """Documents/second through crash recovery's WAL replay path."""
    texts = [document.text for document in corpus.documents[:articles]]
    queries = list(SCALEUP_QUERIES.values())
    root = Path(storage_dir) if storage_dir else Path(tempfile.mkdtemp(prefix="koko-bench-"))
    target = root / "service"
    try:
        service = KokoService(
            shards=shards,
            storage_dir=str(target),
            checkpoint_policy=CheckpointPolicy.disabled(),
        )
        ingest_started = time.perf_counter()
        for index, text in enumerate(texts):
            service.add_document(text, f"bench-{index}")
        ingest_seconds = time.perf_counter() - ingest_started
        reference = [_rows(service.query(q)) for q in queries]
        wal_bytes = service.stats.wal_bytes_appended
        _crash(service)  # everything lives only in the fsynced log

        replay_started = time.perf_counter()
        recovered = KokoService.open(str(target))
        replay_seconds = time.perf_counter() - replay_started
        try:
            identical = [_rows(recovered.query(q)) for q in queries] == reference
            replayed = recovered.stats.replayed_wal_records
        finally:
            recovered.close()
        return {
            "articles": len(texts),
            "shards": shards,
            "wal_bytes": wal_bytes,
            "logged_ingest_seconds": ingest_seconds,
            "recovery_seconds": replay_seconds,
            "replayed_records": replayed,
            "replayed_records_per_second": replayed / max(replay_seconds, 1e-9),
            "replayed_mib_per_second": (wal_bytes / (1 << 20)) / max(replay_seconds, 1e-9),
            "results_identical": identical,
        }
    finally:
        if storage_dir is None:
            shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_recovery_cold_vs_warm(benchmark, wiki_corpus, tmp_path):
    """Warm restart must beat cold rebuild decisively, with identical tuples.

    The 5x acceptance bar is checked at the full benchmark-corpus scale
    (cold annotation cost grows with the corpus; warm restart carries a
    fixed deserialisation overhead, so tiny corpora understate the gap).
    """
    result = benchmark.pedantic(
        run_cold_vs_warm,
        kwargs={
            "corpus": wiki_corpus,
            "articles": 100,
            "shards": 4,
            "storage_dir": str(tmp_path),
        },
        iterations=1,
        rounds=1,
    )
    assert result["results_identical"]
    assert result["replayed_wal_records"] == 0  # clean close folded everything
    assert result["warm_speedup"] >= 5.0, result


def test_recovery_wal_replay_throughput(benchmark, wiki_corpus, tmp_path):
    """Crash recovery replays the whole tail and reproduces every tuple."""
    result = benchmark.pedantic(
        run_wal_replay_throughput,
        kwargs={
            "corpus": wiki_corpus,
            "articles": 20,
            "shards": 2,
            "storage_dir": str(tmp_path),
        },
        iterations=1,
        rounds=1,
    )
    assert result["results_identical"]
    assert result["replayed_records"] == 20
    assert result["replayed_records_per_second"] > 0


if __name__ == "__main__":
    import json
    import sys

    from repro.corpora.wikipedia import generate_wikipedia_corpus

    smoke = "--smoke" in sys.argv
    if smoke:
        wiki = generate_wikipedia_corpus(articles=16)
        cold_warm = run_cold_vs_warm(wiki, articles=12, shards=2)
        replay = run_wal_replay_throughput(wiki, articles=10, shards=2)
    else:
        wiki = generate_wikipedia_corpus(articles=60)
        cold_warm = run_cold_vs_warm(wiki, articles=60, shards=4)
        replay = run_wal_replay_throughput(wiki, articles=40, shards=2)
    summary = {"smoke": smoke, "cold_vs_warm": cold_warm, "wal_replay": replay}
    print(json.dumps(summary, indent=2))
    if not cold_warm["results_identical"] or not replay["results_identical"]:
        sys.exit("recovered service returned different tuples")
    # the 5x bar is a full-corpus acceptance check; smoke mode (tiny corpus,
    # noisy CI runners) only verifies the recovery paths end to end
    if not smoke and cold_warm["warm_speedup"] < 5.0:
        sys.exit(
            f"warm restart speedup {cold_warm['warm_speedup']:.1f}x is below the 5x bar"
        )
