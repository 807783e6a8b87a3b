"""Tests for the telemetry HTTP plane: endpoints, probes, concurrency."""

from __future__ import annotations

import socket
import threading
import time
from pathlib import Path

import pytest

from repro.observability import TelemetryServer, exposition, http_get_json, scrape
from repro.service import KokoService

_SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


def _load_check_prom():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_prom", _SCRIPTS / "check_prom.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_prom = _load_check_prom()

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)
TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "Paolo visited Beijing and ate a delicious croissant.",
]


@pytest.fixture()
def service():
    svc = KokoService(shards=2, use_default_vectors=True, slow_query_ms=0.0)
    for index, text in enumerate(TEXTS):
        svc.add_document(text, f"doc{index}")
    yield svc
    svc.close()


@pytest.fixture()
def server(service):
    with TelemetryServer(service, name="test-node") as telemetry:
        yield telemetry


def test_metrics_endpoint_serves_lintable_prometheus_text(service, server):
    service.query(ENTITY_QUERY)
    status, body = scrape(*server.address, "/metrics")
    assert status == 200
    text = body.decode("utf-8")
    assert check_prom.lint_exposition(text) == []
    names = {sample["name"] for sample in check_prom.parse_samples(text)}
    assert "koko_queries_served_total" in names


def test_metrics_json_and_stats_carry_node_identity(service, server):
    service.query(ENTITY_QUERY)
    status, document = http_get_json(*server.address, "/metrics.json")
    assert status == 200 and document["koko_queries_served_total"] >= 1
    status, stats = http_get_json(*server.address, "/stats")
    assert status == 200
    assert stats["node"] == {"name": "test-node", "kind": "service", "documents": 3}
    percentiles = stats["query_latency_percentiles"]
    assert set(percentiles) == {"p50", "p95", "p99"}
    assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]


def test_health_probes_flip_when_the_service_closes(service, server):
    status, body = http_get_json(*server.address, "/healthz")
    assert status == 200 and body["status"] == "ok"
    status, body = http_get_json(*server.address, "/readyz")
    assert status == 200 and body["checks"]["wal_advancing"]
    service.close()
    status, body = http_get_json(*server.address, "/healthz")
    assert status == 503 and body["checks"]["open"] is False
    status, body = http_get_json(*server.address, "/readyz")
    assert status == 503


def test_readyz_fails_when_a_checkpoint_wedges(service):
    with TelemetryServer(
        service, checkpoint_wedge_seconds=0.05
    ) as telemetry:
        service.stats.record_checkpoint_started()
        try:
            # first probe observes the running checkpoint and arms the timer
            status, _ = http_get_json(*telemetry.address, "/readyz")
            assert status == 200
            time.sleep(0.1)
            status, body = http_get_json(*telemetry.address, "/readyz")
            assert status == 503
            assert body["checks"]["checkpoint_not_wedged"] is False
        finally:
            service.stats.record_checkpoint_finished()
        # a finished checkpoint clears the wedge verdict
        status, body = http_get_json(*telemetry.address, "/readyz")
        assert status == 200


def test_slowlog_and_shards_endpoints_serve_structured_documents(service, server):
    service.query(ENTITY_QUERY)  # slow_query_ms=0 -> every query logged
    status, entries = http_get_json(*server.address, "/slowlog")
    assert status == 200 and entries and entries[0]["kind"] == "query"
    status, limited = http_get_json(*server.address, "/slowlog?limit=0")
    assert status == 200 and limited == []
    status, heat = http_get_json(*server.address, "/shards")
    assert status == 200
    assert heat["hottest_shard"] is not None
    assert len(heat["shards"]) == 2


def test_unknown_paths_and_methods_are_rejected(server):
    status, _ = scrape(*server.address, "/nope")
    assert status == 404
    status, _ = scrape(*server.address, "/cluster")  # no cluster attached
    assert status == 404


def test_a_trickled_request_head_is_cut_off_at_its_deadline(server, monkeypatch):
    """One deadline covers the whole request head: a client sending a header
    line every 0.1 s is answered 400 or dropped once it passes."""
    monkeypatch.setattr(exposition, "REQUEST_HEAD_SECONDS", 0.5)
    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.settimeout(0.1)
        started = time.monotonic()
        sock.sendall(b"GET /metrics HTTP/1.1\r\n")
        answer = None
        while answer is None and time.monotonic() - started < 3.0:
            try:
                sock.sendall(b"X-Trickle: 1\r\n")
                answer = sock.recv(4096)
            except socket.timeout:
                continue
            except OSError:  # reset by the server: dropped
                answer = b""
        elapsed = time.monotonic() - started
    assert answer == b"" or answer.startswith(b"HTTP/1.1 400"), answer
    assert elapsed < 1.5


def test_scrape_under_concurrent_ingest_stays_parseable_and_monotone(service):
    """The race test: 1 writer + scraper loop; every exposition parses,
    counters never move backwards between scrapes."""
    with TelemetryServer(service) as telemetry:
        stop = threading.Event()
        errors: list[BaseException] = []

        def ingest() -> None:
            index = 0
            try:
                while not stop.is_set():
                    doc_id = f"race{index}"
                    service.add_document(TEXTS[index % len(TEXTS)], doc_id)
                    service.remove_document(doc_id)
                    index += 1
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        writer = threading.Thread(target=ingest, daemon=True)
        writer.start()
        previous: dict[tuple, float] = {}
        try:
            for _ in range(20):
                status, body = scrape(*telemetry.address, "/metrics")
                assert status == 200
                text = body.decode("utf-8")
                assert check_prom.lint_exposition(text) == []
                for sample in check_prom.parse_samples(text):
                    if not sample["name"].endswith("_total"):
                        continue
                    key = (sample["name"], tuple(sorted(sample["labels"].items())))
                    assert sample["value"] >= previous.get(key, 0.0), key
                    previous[key] = sample["value"]
        finally:
            stop.set()
            writer.join(timeout=30)
        assert not errors, errors


def test_server_restart_rebinds_and_context_manager_closes(service):
    telemetry = TelemetryServer(service)
    host, port = telemetry.start()
    status, _ = scrape(host, port, "/healthz")
    assert status == 200
    telemetry.close()
    with pytest.raises(OSError):
        scrape(host, port, "/healthz", timeout=1.0)
