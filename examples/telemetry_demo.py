"""Telemetry-plane demo: HTTP endpoints on a primary + TCP replica pair.

Run with:  PYTHONPATH=src python examples/telemetry_demo.py

Builds the full monitored topology the operations guide describes and
exercises every telemetry endpoint over real HTTP:

1. a durable primary with a :class:`TelemetryServer` serving
   ``/metrics``, ``/healthz``, ``/readyz``, ``/stats`` and ``/slowlog``;
2. a TCP log-shipped replica with its own telemetry server;
3. a :class:`ClusterTelemetry` scraper on the primary merging both
   nodes into ``/cluster`` and feeding the primary's readiness.

Every ``/metrics`` body is validated with the repo's exposition linter
(``scripts/check_prom.py``), so this demo doubles as the CI endpoint
smoke: it exits non-zero if any endpoint misbehaves or any exposition
fails the lint.
"""

from __future__ import annotations

import importlib.util
import shutil
import sys
import tempfile
from pathlib import Path

from repro.observability import ClusterTelemetry, TelemetryServer, http_get_json, scrape
from repro.replication import LogShipper, ReplicaService, connect_tcp
from repro.service import KokoService

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

_CHECK_PROM = Path(__file__).resolve().parents[1] / "scripts" / "check_prom.py"


def _load_check_prom():
    """The exposition linter, loaded straight from ``scripts/``."""
    spec = importlib.util.spec_from_file_location("check_prom", _CHECK_PROM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lint(check_prom, name: str, body: bytes) -> int:
    """Lint one scraped exposition; returns the number of findings."""
    findings = check_prom.lint_exposition(body.decode("utf-8"))
    for finding in findings:
        print(f"  LINT {name}: {finding}")
    samples = check_prom.parse_samples(body.decode("utf-8"))
    print(f"  {name}: {len(body)} bytes, {len(samples)} samples, "
          f"{len(findings)} lint finding(s)")
    return len(findings)


def main() -> int:
    """Build the monitored pair, hit every endpoint, lint every scrape."""
    check_prom = _load_check_prom()
    storage = Path(tempfile.mkdtemp(prefix="koko-telemetry-"))
    failures = 0
    try:
        with KokoService(shards=2, storage_dir=storage / "primary") as primary:
            for doc_id, text in ARTICLES.items():
                primary.add_document(text, doc_id)
            primary.query(CITY_QUERY)

            shipper = LogShipper(primary)
            host, port = shipper.listen()
            replica = ReplicaService(connect_tcp(host, port), name="replica-1")
            assert replica.wait_caught_up(primary.wal_position(), timeout=60)

            with TelemetryServer(replica, name="replica-1") as replica_telemetry:
                cluster = ClusterTelemetry(
                    primary=primary, shipper=shipper, max_lag_bytes=64 * 1024
                )
                cluster.add_peer("replica-1", *replica_telemetry.address)
                with TelemetryServer(
                    primary, name="primary", cluster=cluster
                ) as primary_telemetry:
                    cluster.scrape_once()

                    print("=== /metrics on both nodes, linted " + "=" * 32)
                    for name, server in (
                        ("primary", primary_telemetry),
                        ("replica-1", replica_telemetry),
                    ):
                        status, body = scrape(*server.address, "/metrics")
                        assert status == 200, (name, status)
                        failures += _lint(check_prom, name, body)

                    print("\n=== health probes " + "=" * 49)
                    for name, server in (
                        ("primary", primary_telemetry),
                        ("replica-1", replica_telemetry),
                    ):
                        for path in ("/healthz", "/readyz"):
                            status, document = http_get_json(*server.address, path)
                            checks = document["checks"]
                            print(f"  {name} {path}: {status} {checks}")
                            if status != 200:
                                failures += 1

                    print("\n=== primary /cluster " + "=" * 46)
                    status, document = http_get_json(
                        *primary_telemetry.address, "/cluster"
                    )
                    assert status == 200
                    (node,) = document["nodes"]
                    print(
                        f"  ready={document['ready']} "
                        f"replica lag_bytes={node['lag_bytes']} "
                        f"applied={node['applied_position']}"
                    )
                    if not document["ready"] or node["lag_bytes"] != 0:
                        failures += 1

                    print("\n=== /metrics.json, /stats, /slowlog " + "=" * 30)
                    status, counters = http_get_json(
                        *primary_telemetry.address, "/metrics.json"
                    )
                    assert status == 200
                    print(
                        f"  /metrics.json: queries="
                        f"{counters['koko_queries_served_total']} "
                        f"wal_fsyncs={counters['koko_wal_fsyncs_total']}"
                    )
                    status, stats = http_get_json(*primary_telemetry.address, "/stats")
                    assert status == 200
                    print(
                        f"  /stats: node={stats['node']} "
                        f"p50={stats['query_latency_percentiles']['p50']:.6f}s "
                        f"wal_position={stats['wal_position']}"
                    )
                    status, slowlog = http_get_json(
                        *primary_telemetry.address, "/slowlog?limit=3"
                    )
                    assert status == 200
                    print(f"  /slowlog: {len(slowlog)} entries")
                cluster.close()
            replica.close()
            shipper.close()
    finally:
        shutil.rmtree(storage, ignore_errors=True)
    if failures:
        print(f"\nFAIL: {failures} telemetry problem(s)", file=sys.stderr)
        return 1
    print("\nAll endpoints healthy, every exposition lint-clean.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
