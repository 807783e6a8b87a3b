"""Observability demo: EXPLAIN traces, the metrics registry, slow-op log.

Run with:  PYTHONPATH=src python examples/observability_demo.py

Walks the three observability surfaces end to end on a small sharded,
durable service:

1. ``service.query(..., explain=True)`` — an EXPLAIN ANALYZE-style span
   tree covering cache lookups, the per-shard fan-out, every pipeline
   stage, and the merge;
2. ``service.metrics`` — the unified registry (service + WAL/checkpoint
   durability counters in one place), rendered as Prometheus text;
3. ``service.recent_slow_ops()`` — structured slow-op entries, here with
   thresholds forced to 0 so every operation qualifies.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from repro import KokoService

CITY_QUERY = (
    'extract a:GPE from "input.txt" if () satisfying a '
    '(a SimilarTo "city" {1.0}) with threshold 0.3'
)

ARTICLES = {
    "paris": "Paris is a beautiful city with many museums.",
    "osaka": "The barista in Osaka served a delicious espresso.",
    "asia": "cities in asian countries such as Beijing and Tokyo.",
    "pie": "Maria ate a delicious pie in Tokyo.",
}


def main() -> None:
    """Ingest a small corpus and print all three observability surfaces."""
    storage = Path(tempfile.mkdtemp(prefix="koko-observability-"))
    try:
        with KokoService(
            shards=4,
            storage_dir=storage,
            trace_sample_rate=1.0,  # trace everything for the demo
            slow_query_ms=0.0,  # every op "slow": shows the entry shape
            slow_ingest_ms=0.0,
        ) as service:
            for doc_id, text in ARTICLES.items():
                service.add_document(text, doc_id)
            service.checkpoint()

            print("=== EXPLAIN ANALYZE (explain=True) " + "=" * 32)
            explained = service.query(CITY_QUERY, explain=True)
            print(explained.report())
            print(f"\n{len(explained)} tuples — identical to a plain query\n")

            print("=== slow-op log (newest first) " + "=" * 36)
            entry = service.recent_slow_ops(1)[0]
            entry.pop("trace", None)  # the span tree again, elided here
            print(json.dumps(entry, indent=2))

            print("\n=== metrics registry (Prometheus text, excerpt) " + "=" * 19)
            wanted = (
                "koko_queries_served_total",
                "koko_documents_added_total",
                "koko_wal_records_appended_total",
                "koko_wal_fsyncs_total",
                "koko_checkpoints_completed_total",
                "koko_last_checkpoint_unix",
                "koko_slow_ops_total",
                "koko_traces_sampled_total",
            )
            for line in service.metrics.render_text().splitlines():
                if line.startswith(wanted):
                    print(line)
            print(
                f"\n({len(service.metrics.names())} metrics registered; "
                "render_text() / render_json() expose them all)"
            )
    finally:
        shutil.rmtree(storage, ignore_errors=True)


if __name__ == "__main__":
    main()
