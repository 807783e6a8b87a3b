"""Observability costs nothing on the paths it does not trace or scrape.

Three claims, each pinned by its mechanism instead of a timing ratio:

* **untraced work allocates no span** — at ``trace_sample_rate=0.0``,
  ingest, bulk ingest, removal, a cold query, its repeat and a result-cache
  probe construct no :class:`~repro.observability.tracing.Span`, store no
  fragment and count no sampled trace (the same work at ``1.0`` does all
  three, so the counting hook is live);
* **an unsampled context only passes through** — the same operations
  carrying ``TraceContext(sampled=False)``, and one ``query`` frame with
  that header sent raw to an ``RpcServer``, construct no span on the server
  or the service and store no fragment (the WAL record bytes a context adds
  are pinned by ``tests/persistence/test_wal_trace_compat.py``);
* **a scrape takes no serving lock** — ``/metrics`` and ``/metrics.json``
  answer while another thread holds every shard's write lock, the ingest
  meta lock and the WAL writer's write lock.

How often the default 1 % sampling traces is pinned by the deterministic
accumulator in ``test_tracing.py``; what traced work costs is the ledger's
business.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.net import TcpTransport, frame_message
from repro.observability import TelemetryServer, TraceContext, scrape, tracing
from repro.rpc import RpcServer
from repro.rpc.wire import RpcRequest, decode_response, encode_message
from repro.service import KokoService

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)
TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "Paolo visited Beijing and ate a delicious croissant.",
    "Maria ate a delicious pie in Tokyo.",
]


@pytest.fixture
def built_spans(monkeypatch) -> list[str]:
    """The name of every ``Span`` constructed while the test runs."""
    built: list[str] = []
    construct = tracing.Span.__init__

    def counting(self, name, **attributes):
        built.append(name)
        construct(self, name, **attributes)

    monkeypatch.setattr(tracing.Span, "__init__", counting)
    return built


def run_operations(service: KokoService, trace_context=None) -> None:
    """Add, remove, a cold query, the same query again and a cache probe."""
    service.add_document(TEXTS[0], "doc0", trace_context=trace_context)
    service.add_document(TEXTS[3], "doc3", trace_context=trace_context)
    service.remove_document("doc3", trace_context=trace_context)
    assert len(service.query(ENTITY_QUERY, trace_context=trace_context))
    service.query(ENTITY_QUERY, trace_context=trace_context)
    assert service.cached_result(ENTITY_QUERY) is not None


def traced_work(storage_dir, rate: float) -> tuple[int, float]:
    """``(fragments stored, koko_traces_sampled_total)`` after the operations
    plus one bulk ingest on a durable service sampling at *rate*."""
    with KokoService.open(storage_dir, shards=2, trace_sample_rate=rate) as service:
        service.add_documents(TEXTS[1:3], ["doc1", "doc2"])
        run_operations(service)
        return (
            len(service.trace_store),
            service.metrics.get("koko_traces_sampled_total").value,
        )


def test_untraced_work_constructs_no_span(tmp_path, built_spans):
    stored, sampled = traced_work(tmp_path, 0.0)
    assert built_spans == []
    assert stored == 0
    assert sampled == 0


def test_traced_work_shows_in_the_span_count(tmp_path, built_spans):
    """The positive control: the hook sees what tracing builds."""
    stored, sampled = traced_work(tmp_path, 1.0)
    assert {"ingest", "query"} <= set(built_spans)
    assert stored > 0
    assert sampled > 0


def test_an_unsampled_context_constructs_no_span(tmp_path, built_spans):
    """The propagated ``sampled=False`` wins over a sampler that would trace
    every operation (``add_documents`` takes no context, so it sits out)."""
    unsampled = TraceContext.root(sampled=False)
    with KokoService.open(tmp_path, shards=2, trace_sample_rate=1.0) as service:
        run_operations(service, trace_context=unsampled)
        assert built_spans == []
        assert len(service.trace_store) == 0
        assert service.metrics.get("koko_traces_sampled_total").value == 0


def test_an_unsampled_rpc_header_constructs_no_span(listen_ready, built_spans):
    """One raw ``query`` frame whose ``trace`` header is unsampled: the
    server opens no ``rpc.server`` span and forwards no context, so the
    service (sampling at 0) opens none either."""
    request = RpcRequest(
        op="query",
        args={"query": ENTITY_QUERY},
        request_id=1,
        client_id="unsampled",
        trace=TraceContext.root(sampled=False),
    )
    with KokoService(shards=2, trace_sample_rate=0.0) as service:
        service.add_document(TEXTS[0], "doc0")
        with RpcServer(service, name="zero-cost") as server:
            host, port = listen_ready(*server.address)
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(frame_message(encode_message(request)))
                response = decode_response(TcpTransport(sock).recv_payload(timeout=5.0))
        assert response.fault is None
        assert len(response.value) == len(service.query(ENTITY_QUERY))
        assert built_spans == []
        assert len(service.trace_store) == 0


def test_a_scrape_takes_no_serving_lock(tmp_path):
    """``/metrics`` and ``/metrics.json`` answer within 2 s while every lock
    a query or a write takes is held by another thread."""
    held, release = threading.Event(), threading.Event()
    with KokoService.open(tmp_path, shards=2, trace_sample_rate=0.0) as service:
        service.add_document(TEXTS[0], "doc0")
        service.query(ENTITY_QUERY)
        locks = [
            *((shard.lock.acquire_write, shard.lock.release_write) for shard in service._shards),
            (service._ingest.lock.acquire, service._ingest.lock.release),
            (service._wal._writer._write_lock.acquire, service._wal._writer._write_lock.release),
        ]

        def hold() -> None:
            for acquire, _ in locks:
                acquire()
            held.set()
            release.wait(30.0)
            for _, unlock in reversed(locks):
                unlock()

        holder = threading.Thread(target=hold, name="lock-holder")
        with TelemetryServer(service) as telemetry:
            holder.start()
            try:
                assert held.wait(5.0)
                for path in ("/metrics", "/metrics.json"):
                    status, body = scrape(*telemetry.address, path, timeout=2.0)
                    assert status == 200 and body
            finally:
                release.set()
                holder.join(timeout=5.0)
        assert not holder.is_alive()
