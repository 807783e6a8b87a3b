"""End-to-end cluster telemetry: primary + TCP replica + scraped /cluster.

The PR's acceptance scenario: both nodes expose ``/metrics`` over HTTP,
the primary's ``/cluster`` document reports the replica's byte lag and
applied position, and the primary's ``/readyz`` flips unhealthy when the
replica stalls past the lag bound.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.observability import (
    ClusterTelemetry,
    TelemetryServer,
    http_get_json,
    scrape,
)

TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "cities in asian countries such as Beijing and Tokyo.",
]


@pytest.fixture()
def cluster(make_tcp_cluster, listen_ready):
    """Primary + caught-up TCP replica, telemetry on both, /cluster wired.

    The primary/shipper/replica trio comes from the shared
    ``make_tcp_cluster`` fixture (torn down by it, after the telemetry
    servers built here).
    """
    primary, shipper, replica, _router, _host, _port = make_tcp_cluster(texts=TEXTS)

    replica_telemetry = TelemetryServer(replica, name="tcp-replica")
    listen_ready(*replica_telemetry.start())
    telemetry = ClusterTelemetry(
        primary=primary, shipper=shipper, max_lag_bytes=1024, poll_interval=0.05
    )
    telemetry.add_peer("tcp-replica", *replica_telemetry.address)
    primary_telemetry = TelemetryServer(primary, name="primary", cluster=telemetry)
    listen_ready(*primary_telemetry.start())
    telemetry.scrape_once()
    try:
        yield primary, replica, primary_telemetry, replica_telemetry, telemetry
    finally:
        telemetry.close()
        primary_telemetry.close()
        replica_telemetry.close()


def test_both_nodes_expose_metrics_over_http(cluster):
    _, _, primary_telemetry, replica_telemetry, _ = cluster
    for server in (primary_telemetry, replica_telemetry):
        status, body = scrape(*server.address, "/metrics")
        assert status == 200
        assert b"# TYPE koko_documents_added_total counter" in body


def test_cluster_document_reports_replica_lag_and_position(cluster):
    primary, replica, primary_telemetry, _, _ = cluster
    status, document = http_get_json(*primary_telemetry.address, "/cluster")
    assert status == 200
    assert document["ready"] is True
    assert document["primary"]["wal_position"] == str(primary.wal_position())
    (node,) = document["nodes"]
    assert node["name"] == "tcp-replica"
    assert node["scrape_ok"] and node["ready"]
    assert node["lag_bytes"] == 0
    assert node["applied_position"] == str(replica.applied_position)
    (session,) = document["shipper_sessions"]
    assert session["alive"] and not session["stalled"]


def test_replica_stats_and_readyz_cover_replication_state(cluster):
    _, replica, _, replica_telemetry, _ = cluster
    status, stats = http_get_json(*replica_telemetry.address, "/stats")
    assert status == 200
    assert stats["node"]["kind"] == "replica"
    assert stats["replication"]["connected"] is True
    status, ready = http_get_json(*replica_telemetry.address, "/readyz")
    assert status == 200
    assert ready["checks"]["connected"] is True


def test_primary_readyz_flips_when_the_replica_stalls_past_the_bound(cluster):
    primary, replica, primary_telemetry, _, telemetry = cluster
    status, _ = http_get_json(*primary_telemetry.address, "/readyz")
    assert status == 200

    # wedge the replica's apply path, then write past the 1 KiB lag bound
    gate = threading.Event()
    original = replica.service.apply_replicated

    def blocked(*args, **kwargs):
        gate.wait()
        return original(*args, **kwargs)

    replica.service.apply_replicated = blocked
    try:
        for index in range(12):
            primary.add_document(
                TEXTS[index % len(TEXTS)] + f" variation {index}", f"stall{index}"
            )
        deadline = time.monotonic() + 30
        flipped = False
        while time.monotonic() < deadline:
            telemetry.scrape_once()
            status, body = http_get_json(*primary_telemetry.address, "/readyz")
            if status == 503:
                assert body["checks"]["cluster_ready"] is False
                assert body["detail"]["cluster"]["problems"]
                flipped = True
                break
            time.sleep(0.1)
        assert flipped, "primary /readyz never flipped while the replica stalled"
    finally:
        gate.set()
        replica.service.apply_replicated = original
