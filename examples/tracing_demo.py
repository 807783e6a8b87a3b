"""Distributed-tracing demo: one RPC ingest traced across a cluster.

Run with:  PYTHONPATH=src python examples/tracing_demo.py

Builds the full traced topology the operations guide describes and
follows a single write through it over real HTTP:

1. a durable primary serving RPC, with a TCP log-shipped replica;
2. an :class:`RpcClient` with ``trace_sample_rate=1.0`` — the client
   mints the trace, the request header carries it, and every hop
   (server dispatch, ingest, WAL shipping, replica apply) records its
   fragment into its node's trace store;
3. ``/traces`` + ``/traces/<id>`` on each node's telemetry server, and
   the primary's ``/cluster/traces/<id>`` assembling one cross-node
   tree.

The demo exits non-zero when any expected span is missing from the
assembled trace, so it doubles as the CI tracing smoke.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.observability import ClusterTelemetry, TelemetryServer, http_get_json
from repro.replication import LogShipper, ReplicaService, connect_tcp
from repro.rpc import RpcClient, RpcServer
from repro.service import KokoService

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)
TEXT = "I ate a chocolate ice cream, which was delicious, and also ate a pie."

#: every hop the assembled cross-node trace must contain
EXPECTED_SPANS = {
    "rpc.server",       # the client call, server side
    "ingest",           # the primary's service-level ingest
    "wal_append",       # ... its WAL append
    "fsync_wait",       # ... the group-commit fsync wait
    "splice",           # ... the in-memory index splice
    "wal.ship",         # the shipper's batch send to the follower
    "replica.apply",    # the replica's apply of the shipped record
}


def _span_names(node: dict, out: set) -> set:
    out.add(node["name"])
    for child in node.get("children", ()):
        _span_names(child, out)
    return out


def _collect(fragment: dict, names: set, nodes: set, indent: int = 1) -> None:
    nodes.add(fragment["node"])
    _span_names(fragment["root"], names)
    print(
        f"  {'  ' * indent}{fragment['root']['name']}  "
        f"[{fragment['kind']} on {fragment['node']}]  {fragment['ms']:.3f} ms"
    )
    for child in fragment["children"]:
        _collect(child, names, nodes, indent + 1)


def main() -> int:
    """Trace one write end to end; fail loudly on any missing hop."""
    storage = Path(tempfile.mkdtemp(prefix="koko-tracing-"))
    failures = 0
    try:
        with KokoService(shards=2, storage_dir=storage / "primary") as primary:
            shipper = LogShipper(primary)
            ship_host, ship_port = shipper.listen()
            replica = ReplicaService(
                connect_tcp(ship_host, ship_port), name="replica-1"
            )
            with RpcServer(primary) as rpc:
                client = RpcClient(
                    *rpc.address, client_id="demo", trace_sample_rate=1.0
                )
                cluster = ClusterTelemetry(primary=primary, shipper=shipper)
                with TelemetryServer(replica, name="replica-1") as replica_telemetry:
                    with TelemetryServer(
                        primary, name="primary", cluster=cluster, rpc_server=rpc
                    ) as primary_telemetry:
                        cluster.add_peer("primary", *primary_telemetry.address)
                        cluster.add_peer("replica-1", *replica_telemetry.address)

                        client.add_document(TEXT, doc_id="d0", wait_durable=True)
                        client.query(ENTITY_QUERY)
                        assert replica.wait_caught_up(
                            primary.wal_position(), timeout=60
                        )
                        cluster.scrape_once()

                        print("=== client-side view " + "=" * 46)
                        stats = client.stats()
                        print(
                            f"  {stats['requests']} calls: rtt "
                            f"{stats['rtt_ms_avg']} ms = server "
                            f"{stats['server_ms_avg']} ms + wire "
                            f"{stats['wire_ms_avg']} ms"
                        )
                        summaries = client.traces.recent()
                        for summary in summaries:
                            print(
                                f"  trace {summary['trace_id']}: "
                                f"{summary['root_names']}"
                            )
                        ingest_trace = summaries[-1]["trace_id"]  # oldest first call

                        print("\n=== /traces on each node " + "=" * 42)
                        for name, server in (
                            ("primary", primary_telemetry),
                            ("replica-1", replica_telemetry),
                        ):
                            # the replica's fragment lands from its applier
                            # thread; give it a moment on slow machines
                            deadline = time.monotonic() + 15
                            listing = None
                            while time.monotonic() < deadline:
                                status, listing = http_get_json(
                                    *server.address, "/traces"
                                )
                                if status == 200 and listing["stored"]:
                                    break
                                time.sleep(0.05)
                            if listing is None or not listing["stored"]:
                                print(f"  {name}: no traces recorded")
                                failures += 1
                                continue
                            print(
                                f"  {name}: {listing['stored']} trace(s), "
                                f"{listing['recorded_total']} fragment(s)"
                            )

                        print("\n=== /cluster/traces/<id> assembled " + "=" * 32)
                        status, assembled = http_get_json(
                            *primary_telemetry.address,
                            f"/cluster/traces/{ingest_trace}",
                        )
                        if status != 200:
                            print(f"  assembly failed with HTTP {status}")
                            return 1
                        print(
                            f"  trace {assembled['trace_id']}: "
                            f"{assembled['fragments']} fragments, "
                            f"{assembled['spans']} spans, "
                            f"nodes {assembled['nodes']}"
                        )
                        names: set = set()
                        nodes: set = set()
                        for root in assembled["roots"]:
                            _collect(root, names, nodes)
                        missing = EXPECTED_SPANS - names
                        if missing:
                            print(f"  MISSING spans: {sorted(missing)}")
                            failures += 1
                        if len(nodes) < 2:
                            print(f"  expected fragments from 2 nodes, got {nodes}")
                            failures += 1
                        if assembled.get("errors"):
                            print(f"  scrape errors: {assembled['errors']}")
                            failures += 1
                    cluster.close()
                client.close()
            replica.close()
            shipper.close()
    finally:
        shutil.rmtree(storage, ignore_errors=True)
    if failures:
        print(f"\nFAIL: {failures} tracing problem(s)", file=sys.stderr)
        return 1
    print("\nOne write, one trace, every hop accounted for.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
