#!/usr/bin/env python
"""Profile a cached answer's round trip: the first stop for a ``hot_serving`` question.

Loads the ledger's frozen corpus and hot set (``benchmarks.ledger.workloads``,
read-only) into an in-process ``KokoService(shards=4)`` behind an ``RpcServer``
and asks through ``RpcClient`` connections — no WAL, replica or checkpoint
thread — and prints one JSON document with

* per answer (the most popular hot pair of each query, every request a
  result-cache hit): ``round_trip_ms`` and the server's own ``server_ms``,
  ``encode_ms`` (the server building the frame payload), ``decode_ms`` (the
  client turning the payload back into a result), ``materialize_ms`` (the
  client then building every ``ExtractionTuple`` of it, as a caller that
  iterates the whole answer does — outside the round trip), ``frame_bytes``;
* per reader count (1 and 2 closed-loop readers drawing from the ledger's
  Zipf stream): ``ops_per_s``, ``op_p50_ms``, ``executor_submits_per_op`` (0
  when hits are answered on the event loop), and
  ``voluntary_switches_per_op`` / ``system_ms_per_op`` from
  ``resource.getrusage`` — every thread hand-off on the path is a voluntary
  switch, so this is the number that falls when a hop is removed.

Encode and decode are timed by wrapping the ``repro.rpc.wire`` functions the
server and client modules call; medians, so the first (body-building) send of
an entry does not show.

Usage::

    PYTHONPATH=src python scripts/profile_hot.py [--smoke] [--seed 1] [--scale 1] [--repeat 400] [--seconds 3]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from benchmarks.ledger import workloads  # noqa: E402
from repro import KokoService  # noqa: E402
from repro.rpc import RpcClient, RpcServer  # noqa: E402
from repro.rpc import client as client_module  # noqa: E402
from repro.rpc import server as server_module  # noqa: E402

SHARDS = 4
SMOKE_SCALE = 0.05
SMOKE_REPEAT = 5
SMOKE_SECONDS = 0.2


def _median_ms(samples: list[float]) -> float:
    return round(statistics.median(samples) * 1000.0, 4) if samples else 0.0


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
            started = time.perf_counter()
            payload = encode(message, *args)
            self.encode.append(time.perf_counter() - started)
            return payload

        def timed_decode(payload):
            started = time.perf_counter()
            response = decode(payload)
            self.decode.append(time.perf_counter() - started)
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
        started = time.perf_counter()
        result = client.query(text, threshold_override=threshold)
        samples.append(time.perf_counter() - started)
        started = time.perf_counter()
        list(result)
        materialize.append(time.perf_counter() - started)
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


def profile_readers(address, probes: Probes, seed: int, readers: int, seconds: float) -> dict:
    """*readers* closed loops over the ledger's Zipf stream for *seconds*."""
    latencies: list[list[float]] = [[] for _ in range(readers)]
    clients = [RpcClient(*address, client_id=f"hot-{n}") for n in range(readers)]
    start = threading.Barrier(readers + 1)
    stop_at = [0.0]

    def loop(n: int) -> None:
        plan = workloads.hot_plan(seed, n)
        start.wait()
        while time.perf_counter() < stop_at[0]:
            _, text, threshold = next(plan)
            started = time.perf_counter()
            clients[n].query(text, threshold_override=threshold)
            latencies[n].append(time.perf_counter() - started)

    threads = [threading.Thread(target=loop, args=(n,)) for n in range(readers)]
    for thread in threads:
        thread.start()
    probes.reset()
    before = resource.getrusage(resource.RUSAGE_SELF)
    begun = time.perf_counter()
    stop_at[0] = begun + seconds
    start.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begun
    after = resource.getrusage(resource.RUSAGE_SELF)
    for client in clients:
        client.close()
    ops = sum(len(samples) for samples in latencies)
    return {
        "ops_per_s": round(ops / elapsed, 1),
        "op_p50_ms": _median_ms([s for samples in latencies for s in samples]),
        "executor_submits_per_op": round(probes.submits / ops, 3),
        "voluntary_switches_per_op": round((after.ru_nvcsw - before.ru_nvcsw) / ops, 2),
        "system_ms_per_op": round((after.ru_stime - before.ru_stime) * 1000.0 / ops, 4),
    }


def main(argv: list[str] | None = None) -> int:
    """Build the served stack, profile the hot set, print JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, a few requests: checks that it runs")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size as a multiple of the ledger's 128 articles")
    parser.add_argument("--repeat", type=int, default=400, help="requests per answer")
    parser.add_argument("--seconds", type=float, default=3.0, help="length of each closed-loop section")
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else args.scale
    repeat = SMOKE_REPEAT if args.smoke else args.repeat
    seconds = SMOKE_SECONDS if args.smoke else args.seconds

    corpus = workloads.generate_base_corpus(workloads.SPECS["hot_serving"], args.seed, scale)
    with KokoService(shards=SHARDS, trace_sample_rate=0.0) as service:
        for document in corpus.documents:
            service.add_annotated_document(document)
        with RpcServer(service, max_workers=SHARDS, name="profile-hot") as server:
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
                report = {
                    "seed": args.seed,
                    "articles": len(corpus.documents),
                    "shards": SHARDS,
                    "repeat": repeat,
                    "seconds": seconds,
                    "answers": answers,
                    "readers": {
                        str(readers): profile_readers(server.address, probes, args.seed, readers, seconds)
                        for readers in (1, 2)
                    },
                    "result_cache_hit_ratio": round(hit_ratio(service.metrics), 4),
                }
            finally:
                probes.close()
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
