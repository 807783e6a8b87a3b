"""RPC serving benchmark: wire overhead, concurrency, and ingest modes.

Three measurements of the network front door
(:class:`~repro.rpc.server.RpcServer`):

* **concurrent query serving** — N blocking clients, each on its own
  connection, fire cache-busting queries at one served ``KokoService``;
  reported against the same thread pattern calling ``service.query``
  in-process, so the number that matters is the **wire overhead** the
  RPC tier adds (framing + pickling + one asyncio hop), not raw engine
  speed.  Aggregate throughput plus p50/p99 per-request latency, and
  the clients' own round-trip split (``rtt`` / ``server_ms`` from the
  response header / the ``wire`` remainder).
* **mixed read/write storm** — query clients measure read p50/p99 while
  ingest clients churn documents through the same server, the
  contention shape a single-node deployment actually serves.
* **ingest modes** — the same documents shipped three ways: per-document
  durable (`add_document`), bulk (`add_documents`, claim/commit and
  fsyncs amortized per batch) and pipelined (`wait_durable=False` + one
  ``flush`` barrier).  Reports docs/s and WAL fsyncs per document for
  each mode; the bulk and pipelined paths must not fsync per document.

Run under pytest-benchmark like the other ``bench_*`` modules, or
standalone (``PYTHONPATH=src python benchmarks/bench_rpc_serving.py
[--smoke]``) to print raw measurements as JSON.
"""

from __future__ import annotations

import statistics
import threading
import time

from repro.evaluation.queries import SCALEUP_QUERIES
from repro.rpc import RpcClient, RpcServer
from repro.service import KokoService


def _percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of *values* (fraction in [0, 1])."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) + 1)) - 1))
    return ordered[index]


def _drive_clients(client_count: int, work) -> list[list[float]]:
    """Run ``work(client_index, latencies)`` on N threads behind a barrier."""
    latencies: list[list[float]] = [[] for _ in range(client_count)]
    barrier = threading.Barrier(client_count)
    errors: list[BaseException] = []

    def runner(index: int) -> None:
        try:
            barrier.wait()
            work(index, latencies[index])
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(index,))
        for index in range(client_count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return latencies


def run_query_serving(
    corpus, articles: int = 40, clients: int = 4, requests_per_client: int = 40
) -> dict:
    """Concurrent RPC query throughput vs the in-process baseline."""
    queries = list(SCALEUP_QUERIES.values())
    service = KokoService(name=corpus.name, shards=4)
    counter = [0]
    lock = threading.Lock()

    def next_override() -> float:
        with lock:  # unique per request: never a result-cache hit
            counter[0] += 1
            return 0.3 + counter[0] * 1e-9

    try:
        for document in corpus.documents[:articles]:
            service.add_annotated_document(document)

        def measure(make_call) -> dict:
            def work(index: int, latencies: list[float]) -> None:
                call = make_call(index)
                for request_index in range(requests_per_client):
                    query = queries[request_index % len(queries)]
                    started = time.perf_counter()
                    call(query, next_override())
                    latencies.append(time.perf_counter() - started)

            started = time.perf_counter()
            latencies = _drive_clients(clients, work)
            elapsed = time.perf_counter() - started
            flat = [value for bucket in latencies for value in bucket]
            return {
                "requests": len(flat),
                "throughput_qps": len(flat) / elapsed,
                "p50_ms": 1000.0 * statistics.median(flat),
                "p99_ms": 1000.0 * _percentile(flat, 0.99),
            }

        def direct_call(index: int):
            return lambda query, override: service.query(
                query, threshold_override=override
            )

        direct = measure(direct_call)

        with RpcServer(service, max_workers=max(clients, 4)) as server:
            host, port = server.address
            connections = [RpcClient(host, port) for _ in range(clients)]
            try:
                rpc = measure(
                    lambda index: lambda query, override: connections[index].query(
                        query, threshold_override=override
                    )
                )
                # the clients' own split of each round trip: server-side
                # dispatch time (from the response's server_ms header) vs
                # everything else — framing, kernel, network, scheduling
                totals = [connection.stats() for connection in connections]
                requests = sum(s["requests"] for s in totals)
                timed = sum(s["timed"] for s in totals)
                rtt_total = sum(s["rtt_ms_total"] for s in totals)
                server_total = sum(s["server_ms_total"] for s in totals)
                rpc["rtt_ms_avg"] = round(rtt_total / requests, 3) if requests else None
                rpc["server_ms_avg"] = (
                    round(server_total / timed, 3) if timed else None
                )
                rpc["wire_ms_avg"] = (
                    round(max(rpc["rtt_ms_avg"] - rpc["server_ms_avg"], 0.0), 3)
                    if timed and requests
                    else None
                )
            finally:
                for connection in connections:
                    connection.close()
    finally:
        service.close()

    return {
        "articles": articles,
        "clients": clients,
        "direct": direct,
        "rpc": rpc,
        "wire_overhead_pct": (
            (rpc["p50_ms"] - direct["p50_ms"]) / direct["p50_ms"] * 100.0
            if direct["p50_ms"]
            else 0.0
        ),
    }


def run_mixed_storm(
    corpus,
    articles: int = 24,
    query_clients: int = 3,
    requests_per_client: int = 30,
    ingest_docs: int = 12,
) -> dict:
    """Read p50/p99 through RPC while ingest churns the same server."""
    queries = list(SCALEUP_QUERIES.values())
    texts = [
        f"The barista served a delicious espresso in shop {index}."
        for index in range(ingest_docs)
    ]
    service = KokoService(name=corpus.name, shards=4)
    try:
        for document in corpus.documents[:articles]:
            service.add_annotated_document(document)
        with RpcServer(service, max_workers=query_clients + 2) as server:
            host, port = server.address
            stop = threading.Event()
            writes = [0]

            def ingest_loop() -> None:
                writer = RpcClient(host, port, client_id="writer")
                try:
                    round_index = 0
                    while not stop.is_set():
                        suffix = f"-{round_index}"
                        writer.add_documents(
                            texts,
                            doc_ids=[f"storm{index}{suffix}" for index in range(len(texts))],
                            batch_size=4,
                        )
                        for index in range(len(texts)):
                            writer.remove_document(f"storm{index}{suffix}")
                        writes[0] += 2 * len(texts)
                        round_index += 1
                finally:
                    writer.close()

            writer_thread = threading.Thread(target=ingest_loop, daemon=True)
            writer_thread.start()
            counter = [0]
            lock = threading.Lock()

            def work(index: int, latencies: list[float]) -> None:
                client = RpcClient(host, port, client_id=f"reader-{index}")
                try:
                    for request_index in range(requests_per_client):
                        with lock:
                            counter[0] += 1
                            override = 0.3 + counter[0] * 1e-9
                        query = queries[request_index % len(queries)]
                        started = time.perf_counter()
                        client.query(query, threshold_override=override)
                        latencies.append(time.perf_counter() - started)
                finally:
                    client.close()

            started = time.perf_counter()
            latencies = _drive_clients(query_clients, work)
            elapsed = time.perf_counter() - started
            stop.set()
            writer_thread.join(timeout=60)
            flat = [value for bucket in latencies for value in bucket]
    finally:
        service.close()
    return {
        "articles": articles,
        "query_clients": query_clients,
        "reads": len(flat),
        "writes": writes[0],
        "read_qps": len(flat) / elapsed,
        "write_ops_per_s": writes[0] / elapsed,
        "read_p50_ms": 1000.0 * statistics.median(flat),
        "read_p99_ms": 1000.0 * _percentile(flat, 0.99),
    }


def run_ingest_modes(tmp_dir, docs: int = 24, batch_size: int = 8) -> dict:
    """docs/s and fsyncs/doc: per-doc durable vs bulk vs pipelined+flush."""
    texts = [
        f"Visitor {index} ate a delicious croissant in Paris today."
        for index in range(docs)
    ]
    modes = {}
    for mode in ("per_doc", "bulk", "pipelined"):
        service = KokoService(
            shards=2, storage_dir=f"{tmp_dir}/ingest-{mode}"
        )
        try:
            with RpcServer(service) as server:
                client = RpcClient(*server.address, client_id=mode)
                try:
                    wal_fsyncs = service.metrics.get("koko_wal_fsyncs_total")
                    fsyncs0 = wal_fsyncs.value
                    started = time.perf_counter()
                    if mode == "per_doc":
                        for index, text in enumerate(texts):
                            client.add_document(text, doc_id=f"doc{index}")
                    elif mode == "bulk":
                        client.add_documents(
                            texts,
                            doc_ids=[f"doc{index}" for index in range(docs)],
                            batch_size=batch_size,
                        )
                    else:
                        for index, text in enumerate(texts):
                            client.add_document(
                                text, doc_id=f"doc{index}", wait_durable=False
                            )
                        client.flush()
                    elapsed = time.perf_counter() - started
                    fsyncs = wal_fsyncs.value - fsyncs0
                finally:
                    client.close()
            assert len(service) == docs
            modes[mode] = {
                "docs_per_s": docs / elapsed,
                "wal_fsyncs": fsyncs,
                "fsyncs_per_doc": fsyncs / docs,
            }
        finally:
            service.close()
    modes["docs"] = docs
    modes["batch_size"] = batch_size
    return modes


# ----------------------------------------------------------------------
# pytest-benchmark entries (qualitative-shape assertions)
# ----------------------------------------------------------------------
def test_rpc_query_serving_overhead(benchmark, wiki_corpus):
    """The wire serves concurrent clients; latency stays measurable."""
    result = benchmark.pedantic(
        run_query_serving,
        kwargs={
            "corpus": wiki_corpus,
            "articles": 24,
            "clients": 3,
            "requests_per_client": 12,
        },
        iterations=1,
        rounds=1,
    )
    assert result["rpc"]["requests"] == result["direct"]["requests"]
    assert result["rpc"]["throughput_qps"] > 0
    assert result["rpc"]["p99_ms"] >= result["rpc"]["p50_ms"]
    # the client-side split: every response carried server_ms
    assert result["rpc"]["server_ms_avg"] > 0
    assert result["rpc"]["rtt_ms_avg"] >= result["rpc"]["server_ms_avg"]
    assert result["rpc"]["wire_ms_avg"] is not None


def test_rpc_mixed_storm_keeps_reads_flowing(benchmark, wiki_corpus):
    """Reads make progress while bulk ingest churns the same server."""
    result = benchmark.pedantic(
        run_mixed_storm,
        kwargs={
            "corpus": wiki_corpus,
            "articles": 12,
            "query_clients": 2,
            "requests_per_client": 10,
            "ingest_docs": 6,
        },
        iterations=1,
        rounds=1,
    )
    assert result["reads"] == 20 and result["writes"] > 0
    assert result["read_p99_ms"] >= result["read_p50_ms"]


def test_rpc_ingest_modes_amortize_fsyncs(benchmark, tmp_path):
    """Bulk and pipelined ingest fsync (much) less than once per doc."""
    result = benchmark.pedantic(
        run_ingest_modes,
        kwargs={"tmp_dir": str(tmp_path), "docs": 12, "batch_size": 4},
        iterations=1,
        rounds=1,
    )
    assert result["per_doc"]["fsyncs_per_doc"] >= 0.99
    assert result["bulk"]["wal_fsyncs"] <= result["per_doc"]["wal_fsyncs"] / 2
    assert result["pipelined"]["wal_fsyncs"] <= result["per_doc"]["wal_fsyncs"] / 2


if __name__ == "__main__":
    import json
    import sys
    import tempfile

    from repro.corpora.wikipedia import generate_wikipedia_corpus

    smoke = "--smoke" in sys.argv
    if smoke:
        wiki = generate_wikipedia_corpus(articles=24)
        serving = run_query_serving(
            wiki, articles=16, clients=2, requests_per_client=8
        )
        storm = run_mixed_storm(
            wiki, articles=8, query_clients=2, requests_per_client=6, ingest_docs=4
        )
        with tempfile.TemporaryDirectory() as tmp_dir:
            ingest = run_ingest_modes(tmp_dir, docs=8, batch_size=4)
    else:
        wiki = generate_wikipedia_corpus(articles=80)
        serving = run_query_serving(wiki)
        storm = run_mixed_storm(wiki)
        with tempfile.TemporaryDirectory() as tmp_dir:
            ingest = run_ingest_modes(tmp_dir)
    print(
        json.dumps(
            {
                "smoke": smoke,
                "query_serving": serving,
                "mixed_storm": storm,
                "ingest_modes": ingest,
            },
            indent=2,
        )
    )
