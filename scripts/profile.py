#!/usr/bin/env python
"""Profile one serving path in-process: ``read``, ``hot`` or ``write``.

Each subcommand loads the ledger's frozen corpus (``benchmarks.ledger``,
read-only) and prints one JSON document.  ``--smoke`` shrinks the corpus
to 5 % and every loop to a few iterations: it checks that the command
runs, not what it measures.

``read`` — the first stop before a traced ledger run.  The corpus and
queries in a ``KokoService(shards=4)`` with no RPC, WAL, replica or
checkpoint thread; per query:

* ``serial_shard_ms`` — each shard's slice (``shard.engine.execute``) run
  one after another on this thread, and their sum: the work a query is;
* ``query_ms`` — ``service.query`` with every cache missed through a
  unique ``threshold_override``, as on ``cold_extract``: the work plus
  whatever the service adds around it;
* ``stage_ms`` — the merged ``StageTimings`` of one ``service.query``;
* ``fallback_sentences`` — the candidate sentences the columnar
  extraction handed the per-sentence evaluator (span variables, sentences
  with an unrooted token); 0 means every binding came from the DPLI blocks;
* ``voluntary_switches_per_op`` / ``system_ms_per_op`` — from
  ``resource.getrusage`` around the ``service.query`` loop: hundreds of
  switches per query mean threads are handing the GIL around.

``--cprofile N`` adds the top-N cumulative-time table of the
``service.query`` loop per query (cProfile inflates Python frames against
numpy calls: use it to find candidates, then measure with it off).

``hot`` — the first stop for a ``hot_serving`` question.  The corpus and
hot set behind an ``RpcServer`` asked through ``RpcClient`` connections:

* per answer (the most popular hot pair of each query, every request a
  result-cache hit): ``round_trip_ms`` and the server's ``server_ms``,
  ``encode_ms`` (the server building the frame payload), ``decode_ms``
  (the client turning it back into a result), ``materialize_ms`` (then
  building every ``ExtractionTuple``, outside the round trip),
  ``frame_bytes``;
* per reader count (1 and 2 closed-loop readers on the ledger's Zipf
  stream): ``ops_per_s``, ``op_p50_ms``, ``executor_submits_per_op`` (0
  when hits are answered on the event loop) and the rusage figures — every
  thread hand-off is a voluntary switch, so that number falls when a hop
  is removed.

Encode and decode are timed by wrapping the ``repro.rpc.wire`` functions
the server and client modules call; medians, so the first (body-building)
send of an entry does not show.

``write`` — which background work do the slow durable writes overlap?
The ledger's ``ingest_durable`` stack (``ServingStack``: a durable 4-shard
primary, a TCP replica, an ``RpcServer``) with one closed-loop
``RpcClient.add_document`` writer over the pool texts, while the intervals
of the work nobody asked for are recorded: ``checkpoint``,
``write_snapshot`` (the file-writing part of a checkpoint), ``gc2``
(generation-2 collections via ``gc.callbacks``), ``compact``
(``ColumnarPostings.compact``) and ``replica_apply``
(``KokoService.apply_replicated`` on the follower).  Per kind: count,
total and max seconds, and the slow-write time (above ``--slow-ms``) it
overlaps.  Kinds overlap each other (a gen-2 pass inside a checkpoint
counts for both).  ``gc_collections`` gives per generation its
collections, total and max seconds; ``tracked_objects_per_write`` the
growth of ``len(gc.get_objects())`` across the timed section (each end
after a full collection) divided by the writes.

Usage::

    PYTHONPATH=src python scripts/profile.py read [--smoke] [--seed 1] [--scale 1] [--repeat 30] [--cprofile 25]
    PYTHONPATH=src python scripts/profile.py hot [--smoke] [--seed 1] [--scale 1] [--repeat 400] [--seconds 3]
    PYTHONPATH=src python scripts/profile.py write [--smoke] [--seed 1] [--seconds 20] [--slow-ms 10]
"""

from __future__ import annotations

import argparse
import bisect
import gc
import io
import itertools
import json
import pstats
import resource
import statistics
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
# run as a script, this file's directory leads sys.path, and the file's name
# would shadow the standard library's ``profile`` that ``cProfile`` imports
_HERE = Path(__file__).resolve().parent
sys.path[:] = [str(REPO_ROOT / "src"), str(REPO_ROOT)] + [
    entry for entry in sys.path if Path(entry).resolve() != _HERE
]

import cProfile  # noqa: E402
from benchmarks.ledger import stack, workloads  # noqa: E402
from repro.indexing.columnar import ColumnarPostings  # noqa: E402
from repro.koko.engine import compile_query  # noqa: E402
from repro.rpc import RpcClient, RpcServer  # noqa: E402
from repro.rpc import client as client_module  # noqa: E402
from repro.rpc import server as server_module  # noqa: E402
from repro.service import KokoService, durability  # noqa: E402

SMOKE_SCALE = 0.05

_now = time.perf_counter


def _ms(seconds: float) -> float:
    return round(seconds * 1000.0, 4)


def _median_ms(samples: list[float]) -> float:
    return _ms(statistics.median(samples)) if samples else 0.0


def _rusage():
    return resource.getrusage(resource.RUSAGE_SELF)


def rusage_per_op(before, ops: int) -> dict:
    """Voluntary context switches and system ms per op since *before*."""
    after = _rusage()
    return {
        "voluntary_switches_per_op": round((after.ru_nvcsw - before.ru_nvcsw) / ops, 2),
        "system_ms_per_op": _ms((after.ru_stime - before.ru_stime) / ops),
    }


@contextmanager
def loaded_service(workload: str, seed: int, scale: float):
    """The frozen base corpus of *workload* in a memory-only, untraced service."""
    corpus = workloads.generate_base_corpus(workloads.SPECS[workload], seed, scale)
    with KokoService(shards=stack.SHARDS, trace_sample_rate=0.0) as service:
        for document in corpus.documents:
            service.add_annotated_document(document)
        yield service, len(corpus.documents)


# ----------------------------------------------------------------------
# read: the cold query path, shard by shard
# ----------------------------------------------------------------------
READ_SMOKE_REPEAT = 2
#: the query mix runs this long before anything is measured: a thread pool's
#: GIL hand-offs only settle into their steady (contended) state after a
#: second or so of sustained load, and a profile of the quiet first second
#: describes no server
WARMUP_SECONDS = 2.0
SMOKE_WARMUP_SECONDS = 0.1


def warm_up(service: KokoService, seconds: float) -> None:
    """Run the cold query mix (unique negative-step thresholds) for *seconds*."""
    stop_at = _now() + seconds
    for n in itertools.count(1):
        if _now() >= stop_at:
            return
        for _, text in workloads.QUERIES:
            service.query(text, threshold_override=workloads.COLD_THRESHOLD - n * workloads.COLD_STEP)


def profile_query(service: KokoService, text: str, repeat: int, top: int) -> dict:
    """Measurements of one query text, every execution at a threshold of its own."""
    thresholds = (
        workloads.COLD_THRESHOLD + n * workloads.COLD_STEP for n in itertools.count(1)
    )
    plan = compile_query(text)
    per_shard: list[list[float]] = [[] for _ in range(stack.SHARDS)]
    for _ in range(repeat):
        threshold = next(thresholds)
        for shard in service._shards:
            started = _now()
            shard.engine.execute(plan, threshold_override=threshold)
            per_shard[shard.shard_id].append(_now() - started)

    fallback = 0
    for shard in service._shards:
        ctx = shard.engine.make_context(plan, threshold_override=next(thresholds))
        shard.engine.pipeline.run(ctx)
        fallback += ctx.fallback_sentences

    service.query(text, threshold_override=next(thresholds))  # plan cache warm
    samples: list[float] = []
    before = _rusage()
    for _ in range(repeat):
        started = _now()
        result = service.query(text, threshold_override=next(thresholds))
        samples.append(_now() - started)
    usage = rusage_per_op(before, repeat)

    serial = [_median_ms(times) for times in per_shard]
    report = {
        "tuples": len(result),
        "serial_shard_ms": serial,
        "serial_sum_ms": round(sum(serial), 4),
        "query_ms": _median_ms(samples),
        "stage_ms": {name: _ms(value) for name, value in result.timings.as_dict().items()},
        "fallback_sentences": fallback,
        **usage,
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


def run_read(args) -> dict:
    """Profile every frozen ledger query on the cold path."""
    scale = SMOKE_SCALE if args.smoke else args.scale
    repeat = READ_SMOKE_REPEAT if args.smoke else args.repeat
    with loaded_service("cold_extract", args.seed, scale) as (service, articles):
        warm_up(service, SMOKE_WARMUP_SECONDS if args.smoke else WARMUP_SECONDS)
        return {
            "seed": args.seed,
            "articles": articles,
            "shards": stack.SHARDS,
            "repeat": repeat,
            "queries": {
                name: profile_query(service, text, repeat, args.cprofile)
                for name, text in workloads.QUERIES
            },
        }


# ----------------------------------------------------------------------
# hot: a cached answer's round trip through the RPC door
# ----------------------------------------------------------------------
HOT_SMOKE_REPEAT = 5
HOT_SMOKE_SECONDS = 0.2


def hit_ratio(registry) -> float:
    """Result-cache hits over cacheable queries, from the two counters."""
    hits = registry.get("koko_result_cache_hits_total").value
    misses = registry.get("koko_result_cache_misses_total").value
    return hits / (hits + misses) if hits + misses else 0.0


class Probes:
    """Timers around the wire functions and a counter on the executor."""

    def __init__(self, server: RpcServer) -> None:
        self.encode: list[float] = []
        self.decode: list[float] = []
        self.frame_bytes: list[int] = []
        self.server_ms: list[float] = []
        self.submits = 0
        encode = self._encode = server_module.encode_message
        decode = self._decode = client_module.decode_response
        submit = server._executor.submit

        def timed_encode(message, *args):
            started = _now()
            payload = encode(message, *args)
            self.encode.append(_now() - started)
            return payload

        def timed_decode(payload):
            started = _now()
            response = decode(payload)
            self.decode.append(_now() - started)
            self.frame_bytes.append(len(payload))
            self.server_ms.append(response.server_ms / 1000.0)
            return response

        def counted_submit(*args, **kwargs):
            self.submits += 1
            return submit(*args, **kwargs)

        server_module.encode_message = timed_encode
        client_module.decode_response = timed_decode
        server._executor.submit = counted_submit

    def reset(self) -> None:
        self.encode, self.decode, self.frame_bytes, self.server_ms = [], [], [], []
        self.submits = 0

    def close(self) -> None:
        server_module.encode_message = self._encode
        client_module.decode_response = self._decode


def profile_answer(client: RpcClient, probes: Probes, text: str, threshold: float, repeat: int) -> dict:
    """One cached answer asked *repeat* times by one reader."""
    client.query(text, threshold_override=threshold)  # the entry's body exists
    probes.reset()
    samples, materialize = [], []
    for _ in range(repeat):
        started = _now()
        result = client.query(text, threshold_override=threshold)
        samples.append(_now() - started)
        started = _now()
        list(result)
        materialize.append(_now() - started)
    return {
        "tuples": len(result),
        "round_trip_ms": _median_ms(samples),
        "server_ms": _median_ms(probes.server_ms),
        "encode_ms": _median_ms(probes.encode),
        "decode_ms": _median_ms(probes.decode),
        "materialize_ms": _median_ms(materialize),
        "frame_bytes": int(statistics.median(probes.frame_bytes)),
        "executor_submits_per_op": round(probes.submits / repeat, 3),
    }


def closed_loop_readers(address, probes: Probes, seed: int, readers: int, seconds: float) -> dict:
    """*readers* closed loops over the ledger's Zipf stream for *seconds*."""
    latencies: list[list[float]] = [[] for _ in range(readers)]
    clients = [RpcClient(*address, client_id=f"hot-{n}") for n in range(readers)]
    start = threading.Barrier(readers + 1)
    stop_at = [0.0]

    def loop(n: int) -> None:
        plan = workloads.hot_plan(seed, n)
        start.wait()
        while _now() < stop_at[0]:
            _, text, threshold = next(plan)
            started = _now()
            clients[n].query(text, threshold_override=threshold)
            latencies[n].append(_now() - started)

    threads = [threading.Thread(target=loop, args=(n,)) for n in range(readers)]
    for thread in threads:
        thread.start()
    probes.reset()
    before = _rusage()
    begun = _now()
    stop_at[0] = begun + seconds
    start.wait()
    for thread in threads:
        thread.join()
    elapsed = _now() - begun
    ops = sum(len(samples) for samples in latencies)
    usage = rusage_per_op(before, ops)
    for client in clients:
        client.close()
    return {
        "ops_per_s": round(ops / elapsed, 1),
        "op_p50_ms": _median_ms([s for samples in latencies for s in samples]),
        "executor_submits_per_op": round(probes.submits / ops, 3),
        **usage,
    }


def run_hot(args) -> dict:
    """Profile the hot set's cached answers behind the RPC server."""
    scale = SMOKE_SCALE if args.smoke else args.scale
    repeat = HOT_SMOKE_REPEAT if args.smoke else args.repeat
    seconds = HOT_SMOKE_SECONDS if args.smoke else args.seconds
    with loaded_service("hot_serving", args.seed, scale) as (service, articles):
        with RpcServer(service, max_workers=stack.SHARDS, name="profile-hot") as server:
            probes = Probes(server)
            try:
                with RpcClient(*server.address, client_id="hot-prefill") as client:
                    for query_index, threshold in workloads.HOT_KEYS:
                        client.query(workloads.QUERIES[query_index][1], threshold_override=threshold)
                    answers = {
                        workloads.QUERIES[query_index][0]: profile_answer(
                            client, probes, workloads.QUERIES[query_index][1], threshold, repeat
                        )
                        for query_index, threshold in workloads.HOT_KEYS[:3]
                    }
                return {
                    "seed": args.seed,
                    "articles": articles,
                    "shards": stack.SHARDS,
                    "repeat": repeat,
                    "seconds": seconds,
                    "answers": answers,
                    "readers": {
                        str(readers): closed_loop_readers(server.address, probes, args.seed, readers, seconds)
                        for readers in (1, 2)
                    },
                    "result_cache_hit_ratio": round(hit_ratio(service.metrics), 4),
                }
            finally:
                probes.close()


# ----------------------------------------------------------------------
# write: slow durable writes against the background work they overlap
# ----------------------------------------------------------------------
WRITE_SMOKE_SECONDS = 1.5


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


def write_report(writes, intervals: Intervals, slow_ms: float) -> dict:
    """The writes, and per background kind how much slow-write time it overlaps."""
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
        "write_p50_ms": _ms(latencies[len(latencies) // 2]) if writes else 0.0,
        "write_p99_ms": _ms(latencies[int(len(latencies) * 0.99)]) if writes else 0.0,
        "slow_ms": slow_ms,
        "slow_writes": len(slow),
        "slow_write_latency_s": round(slow_seconds, 4),
        "background": kinds,
        "gc_collections": {
            f"gen{generation}": _totals(spans)
            for generation, spans in sorted(intervals.collections.items())
        },
    }


def run_write(args) -> dict:
    """Build the ingest_durable stack, drive one writer, attribute the slow writes."""
    spec = workloads.SPECS["ingest_durable"]
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = WRITE_SMOKE_SECONDS if args.smoke else args.seconds
    corpus = workloads.generate_base_corpus(spec, args.seed, scale)
    texts = workloads.generate_pool_texts(spec, args.seed, scale)
    intervals = Intervals()
    with tempfile.TemporaryDirectory(prefix="profile-write-") as tmp:
        def load(primary) -> None:
            for document in corpus.documents:
                primary.add_document(document.text, doc_id=document.doc_id)

        serving = stack.ServingStack(Path(tmp) / "store", "profile-write")
        try:
            serving.start(load)
            intervals.install()
            warm = drive(serving.rpc_address, texts, min(workloads.WARMUP_SECONDS, seconds), 0)
            gc.collect()
            tracked_before = len(gc.get_objects())
            intervals.clear()
            writes = drive(serving.rpc_address, texts, seconds, len(warm))
            result = write_report(writes, intervals, args.slow_ms)
            gc.collect()
            result["tracked_objects_per_write"] = round(
                (len(gc.get_objects()) - tracked_before) / max(1, len(writes)), 1
            )
        finally:
            intervals.uninstall()
            serving.close()
    result.update(seed=args.seed, seconds=seconds, base_articles=len(corpus.documents))
    return result


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and print its JSON report."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--smoke", action="store_true", help="tiny corpus, a few iterations: checks that it runs")
    common.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    scale_help = "corpus size as a multiple of the ledger's 128 articles"

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    read = commands.add_parser("read", parents=[common], help="the cold query path, shard by shard")
    read.add_argument("--scale", type=float, default=1.0, help=scale_help)
    read.add_argument("--repeat", type=int, default=30, help="executions per query and measurement")
    read.add_argument("--cprofile", type=int, default=0, metavar="N", help="add the top-N cumulative table")
    read.set_defaults(run=run_read)
    hot = commands.add_parser("hot", parents=[common], help="a cached answer's RPC round trip")
    hot.add_argument("--scale", type=float, default=1.0, help=scale_help)
    hot.add_argument("--repeat", type=int, default=400, help="requests per answer")
    hot.add_argument("--seconds", type=float, default=3.0, help="length of each closed-loop section")
    hot.set_defaults(run=run_hot)
    write = commands.add_parser("write", parents=[common], help="slow durable writes vs background work")
    write.add_argument("--seconds", type=float, default=20.0, help="length of the timed section")
    write.add_argument("--slow-ms", type=float, default=10.0, help="a write slower than this is slow")
    write.set_defaults(run=run_write)

    args = parser.parse_args(argv)
    print(json.dumps(args.run(args), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
