"""KokoService demo: ingestion, caching, batching, sharding, durability.

Run with:  PYTHONPATH=src python examples/service_demo.py
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro import KokoService

CITY_QUERY = (
    'extract a:GPE from "input.txt" if () satisfying a '
    '(a SimilarTo "city" {1.0}) with threshold 0.3'
)
DELICIOUS_QUERY = """
extract e:Entity, d:Str from input.txt if
(/ROOT:{
a = //verb,
b = a/dobj,
c = b//"delicious",
d = (b.subtree)
} (b) in (e))
"""


def main() -> None:
    service = KokoService()

    print("ingesting two documents...")
    service.add_document(
        "I ate a chocolate ice cream, which was delicious, and also ate a pie.", "doc0"
    )
    service.add_document(
        "Anna ate some delicious cheesecake that she bought at a grocery store.", "doc1"
    )

    print("\nfirst query (cold, compiles the plan and fills the result cache):")
    for extraction in service.query(DELICIOUS_QUERY):
        print(f"  {extraction.doc_id}: e={extraction.value('e')!r}")

    service.query(DELICIOUS_QUERY)  # served from the result cache
    print(f"result-cache hits so far: {service.stats.result_cache_hits}")

    print("\ningesting a third document invalidates cached results...")
    service.add_document("cities in asian countries such as Beijing and Tokyo.", "s2")
    batch = service.query_batch([DELICIOUS_QUERY, CITY_QUERY])
    cities = ", ".join(sorted(t.value("a") for t in batch[1]))
    print(f"  delicious tuples: {len(batch[0])}   cities: {cities}")

    print("\nremoving that document un-indexes it:")
    service.remove_document("s2")
    print(f"  cities now: {[t.value('a') for t in service.query(CITY_QUERY)]}")

    print("\nservice stats:")
    for key, value in service.stats.snapshot().items():
        print(f"  {key}: {value:.6g}" if isinstance(value, float) else f"  {key}: {value}")

    print("\n--- sharded service (4 hash partitions) ---")
    with KokoService(shards=4) as sharded:
        texts = [
            "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
            "Anna ate some delicious cheesecake that she bought at a grocery store.",
            "Paolo visited Beijing and ate a delicious croissant.",
            "cities in asian countries such as Beijing and Tokyo.",
        ]
        for index, text in enumerate(texts):
            document = sharded.add_document(text, f"doc{index}")
            print(f"  doc{index} -> shard {sharded.shard_of(document.doc_id)}")
        # a query fans out across every shard and merges deterministically
        merged = sharded.query(DELICIOUS_QUERY)
        print(f"  merged tuples (sid order): {[t.sid for t in merged]}")
        print("  per-shard breakdown:")
        for shard, row in sharded.stats.shard_breakdown().items():
            print(
                f"    shard {shard}: docs={row['documents_added']} "
                f"queries={row['queries']}"
            )

    print("\n--- durable service (snapshot + write-ahead log) ---")
    root = Path(tempfile.mkdtemp(prefix="koko-demo-"))
    try:
        with KokoService.open(root / "durable", shards=2) as durable:
            durable.add_document(
                "Maria ate a delicious pie in Tokyo.", "doc0"
            )
            durable.add_document(
                "The barista in Osaka served a delicious espresso.", "doc1"
            )
            live = [t.sid for t in durable.query(DELICIOUS_QUERY)]
            print(f"  live tuples: {live}")
        # the context manager flushed a final checkpoint on exit
        with KokoService.open(root / "durable") as warm:
            print(f"  reopened warm: {len(warm)} documents, "
                  f"recovery took {warm.stats.recovery_seconds * 1e3:.1f} ms, "
                  f"{warm.stats.replayed_wal_records} WAL records replayed")
            assert [t.sid for t in warm.query(DELICIOUS_QUERY)] == live
            print(f"  identical tuples after restart: {live}")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
