#!/usr/bin/env python
"""Profile durable writes: which background work do the slow ones overlap?

Builds the ledger's ``ingest_durable`` stack in-process (``benchmarks.ledger``,
read-only: a durable 4-shard primary, a TCP replica following it, an
``RpcServer`` in front, the 128-article base corpus loaded) and drives one
closed-loop ``RpcClient.add_document`` writer over the ledger's pool texts,
noting each write's start and end.  Meanwhile it records the intervals of
the work nobody asked for:

* ``checkpoint`` — ``KokoService.checkpoint`` (background and explicit);
* ``write_snapshot`` — the file-writing part of a checkpoint;
* ``gc2`` — generation-2 collections (``gc.callbacks``);
* ``compact`` — ``ColumnarPostings.compact`` (delta folded into main);
* ``replica_apply`` — ``KokoService.apply_replicated`` on the follower.

It prints one JSON document: the writes (count, total and slow latency,
slow = above ``--slow-ms``), and per interval kind its count, total and
max seconds and how much slow-write time it overlaps — the share of the
tail each kind can explain.  Kinds overlap each other (a gen-2 pass inside
a checkpoint counts for both).  Beside them, the collector: per generation
its collections, total and max seconds over the timed section, and
``tracked_objects_per_write`` — the growth of ``len(gc.get_objects())``
across the timed section (each end after a full collection) divided by
the writes, i.e. how many objects every write leaves for later full
collections to walk.

Usage::

    PYTHONPATH=src python scripts/profile_write.py [--smoke] [--seed 1] [--seconds 20] [--slow-ms 10]
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from benchmarks.ledger import workloads  # noqa: E402
from benchmarks.ledger.stack import ServingStack  # noqa: E402
from repro.indexing.columnar import ColumnarPostings  # noqa: E402
from repro.rpc import RpcClient  # noqa: E402
from repro.service import KokoService  # noqa: E402
from repro.service import durability  # noqa: E402

SPEC = workloads.SPECS["ingest_durable"]
SMOKE_SCALE = 0.05
SMOKE_SECONDS = 1.5

_now = time.perf_counter


class Intervals:
    """Start/end of every call of the wrapped callables, by kind."""

    def __init__(self) -> None:
        self.spans: dict[str, list[tuple[float, float]]] = {}
        #: generation -> (start, end) of each of its collections
        self.collections: dict[int, list[tuple[float, float]]] = {0: [], 1: [], 2: []}
        self._undo: list = []
        self._gc_started: float | None = None

    def wrap(self, owner, attr: str, kind: str) -> None:
        original = getattr(owner, attr)
        spans = self.spans.setdefault(kind, [])
        self._undo.append((owner, attr, vars(owner).get(attr)))

        def timed(*args, **kwargs):
            started = _now()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append((started, _now()))

        setattr(owner, attr, timed)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = _now()
        elif self._gc_started is not None:
            span = (self._gc_started, _now())
            self.collections[info["generation"]].append(span)
            if info["generation"] == 2:
                self.spans["gc2"].append(span)
            self._gc_started = None

    def install(self) -> None:
        self.wrap(KokoService, "checkpoint", "checkpoint")
        self.wrap(durability, "write_snapshot", "write_snapshot")
        self.wrap(ColumnarPostings, "compact", "compact")
        self.wrap(KokoService, "apply_replicated", "replica_apply")
        self.spans.setdefault("gc2", [])
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:  # inherited: drop the shadow
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def clear(self) -> None:
        for spans in (*self.spans.values(), *self.collections.values()):
            spans.clear()


def _union(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _overlap(union: list[tuple[float, float]], start: float, end: float) -> float:
    """Seconds of [start, end] covered by the disjoint, sorted *union*."""
    total = 0.0
    index = max(0, bisect.bisect_right(union, (start, float("inf"))) - 1)
    while index < len(union) and union[index][0] < end:
        total += max(0.0, min(end, union[index][1]) - max(start, union[index][0]))
        index += 1
    return total


def drive(address, texts: list[str], seconds: float, first: int) -> list[tuple[float, float]]:
    """One closed-loop durable writer for *seconds*; returns each write's (start, end)."""
    writes = []
    with RpcClient(*address, client_id="profile-writer") as client:
        stop_at = _now() + seconds
        index = first
        while _now() < stop_at:
            started = _now()
            client.add_document(texts[index % len(texts)], doc_id=f"pw-{index:06d}")
            writes.append((started, _now()))
            index += 1
    return writes


def _totals(spans: list[tuple[float, float]]) -> dict:
    return {
        "count": len(spans),
        "total_s": round(sum(e - s for s, e in spans), 4),
        "max_s": round(max((e - s for s, e in spans), default=0.0), 4),
    }


def report(writes, intervals: Intervals, slow_ms: float) -> dict:
    slow = [(s, e) for s, e in writes if (e - s) * 1000.0 > slow_ms]
    slow_seconds = sum(e - s for s, e in slow)
    kinds = {}
    for kind, spans in sorted(intervals.spans.items()):
        union = _union(spans)
        overlap = sum(_overlap(union, s, e) for s, e in slow)
        kinds[kind] = {
            **_totals(spans),
            "slow_write_overlap_s": round(overlap, 4),
            "slow_write_overlap_share": round(overlap / slow_seconds, 4) if slow else 0.0,
        }
    latencies = sorted(e - s for s, e in writes)
    return {
        "writes": len(writes),
        "write_latency_total_s": round(sum(latencies), 4),
        "write_p50_ms": round(1000.0 * latencies[len(latencies) // 2], 3) if writes else 0.0,
        "write_p99_ms": round(1000.0 * latencies[int(len(latencies) * 0.99)], 3) if writes else 0.0,
        "slow_ms": slow_ms,
        "slow_writes": len(slow),
        "slow_write_latency_s": round(slow_seconds, 4),
        "background": kinds,
        "gc_collections": {
            f"gen{generation}": _totals(spans)
            for generation, spans in sorted(intervals.collections.items())
        },
    }


def main(argv: list[str] | None = None) -> int:
    """Build the ingest_durable stack, drive one writer, print JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, a second of writes: checks that it runs")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed section")
    parser.add_argument("--slow-ms", type=float, default=10.0, help="a write slower than this is slow")
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = SMOKE_SECONDS if args.smoke else args.seconds

    corpus = workloads.generate_base_corpus(SPEC, args.seed, scale)
    texts = workloads.generate_pool_texts(SPEC, args.seed, scale)
    intervals = Intervals()
    with tempfile.TemporaryDirectory(prefix="profile-write-") as tmp:
        def load(primary) -> None:
            for document in corpus.documents:
                primary.add_document(document.text, doc_id=document.doc_id)

        serving = ServingStack(Path(tmp) / "store", "profile-write")
        try:
            serving.start(load)
            intervals.install()
            warm = drive(serving.rpc_address, texts, min(workloads.WARMUP_SECONDS, seconds), 0)
            gc.collect()
            tracked_before = len(gc.get_objects())
            intervals.clear()
            writes = drive(serving.rpc_address, texts, seconds, len(warm))
            result = report(writes, intervals, args.slow_ms)
            gc.collect()
            result["tracked_objects_per_write"] = round(
                (len(gc.get_objects()) - tracked_before) / max(1, len(writes)), 1
            )
        finally:
            intervals.uninstall()
            serving.close()
    result.update(seed=args.seed, seconds=seconds, base_articles=len(corpus.documents))
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
