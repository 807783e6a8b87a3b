#!/usr/bin/env python
"""Profile the read path in-process: the first stop before a traced ledger run.

Loads the ledger's frozen corpus and queries (``benchmarks.ledger.workloads``,
read-only) into an in-process ``KokoService(shards=4)`` — no RPC, WAL,
replica or checkpoint thread — and prints one JSON document with, per query:

* ``serial_shard_ms`` — each shard's slice (``shard.engine.execute``) run one
  after another on this thread, and their sum: the work a query really is;
* ``query_ms`` — ``service.query`` (every cache missed through a unique
  ``threshold_override``, as on ``cold_extract``): the work plus whatever the
  service adds around it;
* ``stage_ms`` — the merged ``StageTimings`` of one ``service.query``;
* ``voluntary_switches_per_op`` / ``system_ms_per_op`` — from
  ``resource.getrusage`` around the ``service.query`` loop: hundreds of
  switches per query mean threads are handing the GIL around, not working.

``--cprofile N`` adds the top-N cumulative-time table of the ``service.query``
loop per query (cProfile inflates Python frames against numpy calls: use it to
find candidates, then measure with it off).

Usage::

    PYTHONPATH=src python scripts/profile_read.py [--smoke] [--seed 1] [--scale 1] [--repeat 30] [--cprofile 25]
"""

from __future__ import annotations

import argparse
import cProfile
import io
import itertools
import json
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from benchmarks.ledger import workloads  # noqa: E402
from repro import KokoService  # noqa: E402
from repro.koko.engine import compile_query  # noqa: E402

SHARDS = 4
SMOKE_SCALE = 0.05
SMOKE_REPEAT = 2
#: the query mix runs this long before anything is measured: a thread pool's
#: GIL hand-offs only settle into their steady (contended) state after a
#: second or so of sustained load, and a profile of the quiet first second
#: describes no server
WARMUP_SECONDS = 2.0
SMOKE_WARMUP_SECONDS = 0.1


def _ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def _median_ms(samples: list[float]) -> float:
    return _ms(statistics.median(samples))


def warm_up(service: KokoService, seconds: float) -> None:
    """Run the cold query mix (unique negative-step thresholds) for *seconds*."""
    stop_at = time.perf_counter() + seconds
    for n in itertools.count(1):
        if time.perf_counter() >= stop_at:
            return
        for _, text in workloads.QUERIES:
            service.query(text, threshold_override=workloads.COLD_THRESHOLD - n * workloads.COLD_STEP)


def profile_query(service: KokoService, text: str, repeat: int, top: int) -> dict:
    """Measurements of one query text, every execution at a threshold of its own."""
    thresholds = (
        workloads.COLD_THRESHOLD + n * workloads.COLD_STEP for n in itertools.count(1)
    )
    plan = compile_query(text)
    per_shard: list[list[float]] = [[] for _ in range(SHARDS)]
    for _ in range(repeat):
        threshold = next(thresholds)
        for shard in service._shards:
            started = time.perf_counter()
            shard.engine.execute(plan, threshold_override=threshold)
            per_shard[shard.shard_id].append(time.perf_counter() - started)

    service.query(text, threshold_override=next(thresholds))  # plan cache warm
    samples: list[float] = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for _ in range(repeat):
        started = time.perf_counter()
        result = service.query(text, threshold_override=next(thresholds))
        samples.append(time.perf_counter() - started)
    after = resource.getrusage(resource.RUSAGE_SELF)

    report = {
        "tuples": len(result),
        "serial_shard_ms": [_median_ms(times) for times in per_shard],
        "serial_sum_ms": round(sum(_median_ms(times) for times in per_shard), 3),
        "query_ms": _median_ms(samples),
        "stage_ms": {name: _ms(value) for name, value in result.timings.as_dict().items()},
        "voluntary_switches_per_op": round((after.ru_nvcsw - before.ru_nvcsw) / repeat, 1),
        "system_ms_per_op": _ms((after.ru_stime - before.ru_stime) / repeat),
    }
    if top:
        profiler = cProfile.Profile()
        profiler.enable()
        for _ in range(repeat):
            service.query(text, threshold_override=next(thresholds))
        profiler.disable()
        table = io.StringIO()
        pstats.Stats(profiler, stream=table).sort_stats("cumulative").print_stats(top)
        report["cprofile"] = table.getvalue().splitlines()
    return report


def main(argv: list[str] | None = None) -> int:
    """Build the service, profile every frozen ledger query, print JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, 2 repeats: checks that it runs")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size as a multiple of the ledger's 128 articles")
    parser.add_argument("--repeat", type=int, default=30, help="executions per query and measurement")
    parser.add_argument("--cprofile", type=int, default=0, metavar="N", help="add the top-N cumulative table")
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else args.scale
    repeat = SMOKE_REPEAT if args.smoke else args.repeat

    corpus = workloads.generate_base_corpus(workloads.SPECS["cold_extract"], args.seed, scale)
    with KokoService(shards=SHARDS, trace_sample_rate=0.0) as service:
        for document in corpus.documents:
            service.add_annotated_document(document)
        warm_up(service, SMOKE_WARMUP_SECONDS if args.smoke else WARMUP_SECONDS)
        report = {
            "seed": args.seed,
            "articles": len(corpus.documents),
            "shards": SHARDS,
            "repeat": repeat,
            "queries": {
                name: profile_query(service, text, repeat, args.cprofile)
                for name, text in workloads.QUERIES
            },
        }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
