"""The whole metric surface, pinned: every name, kind, label set and help text.

A durable 4-shard primary with a TCP replica, a ``ReplicaSet`` router and
an ``RpcServer`` runs a fixed sequence of reads and writes; the union of
the primary's and the replica's registries must then hold exactly the
instruments below.  Dashboards, alerts and the benchmark ledger read
metrics by these names, so renaming one, changing its type or labels,
or dropping one is a visible change to this list.
"""

from __future__ import annotations

from repro.rpc import RpcClient, RpcServer

TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "cities in asian countries such as Beijing and Tokyo.",
    "Paolo visited Beijing and ate a delicious croissant.",
]
CITY_QUERY = (
    'extract a:GPE from "input.txt" if () satisfying a '
    '(a SimilarTo "city" {1.0}) with threshold 0.3'
)

#: (name, kind, label names, help text), sorted by name
SURFACE = [
    ("koko_checkpoint_failures_total", "counter", (), "Background checkpoints that failed."),
    ("koko_checkpoint_in_progress", "gauge", (), "1 while a checkpoint is running (a stuck checkpointer pins this at 1)."),
    ("koko_checkpoints_completed_total", "counter", (), "Snapshot checkpoints completed."),
    ("koko_documents_added_total", "counter", (), "Documents ingested."),
    ("koko_documents_removed_total", "counter", (), "Documents removed."),
    ("koko_ingest_backpressure_waits_total", "counter", (), "Ingest claims that blocked on the in-flight bytes bound."),
    ("koko_ingest_seconds_total", "counter", (), "Wall seconds spent adding documents."),
    ("koko_last_checkpoint_unix", "gauge", (), "Unix time of the last completed checkpoint (0 = none yet)."),
    ("koko_plan_cache_hits_total", "counter", (), "Compiled-plan cache hits."),
    ("koko_plan_cache_misses_total", "counter", (), "Compiled-plan cache misses."),
    ("koko_queries_served_total", "counter", (), "Queries served (string and pre-compiled)."),
    ("koko_query_latency_seconds", "histogram", (), "End-to-end query latency."),
    ("koko_recovered_documents", "gauge", (), "Documents restored by the warm restart."),
    ("koko_recovered_torn_tail", "gauge", (), "1 when recovery truncated a torn WAL tail."),
    ("koko_recovery_seconds", "gauge", (), "Wall seconds the warm restart took."),
    ("koko_replayed_wal_records", "gauge", (), "WAL records replayed on recovery."),
    ("koko_replication_apply_seconds", "histogram", (), "Per-record apply wall-clock (power-of-two buckets)."),
    ("koko_replication_connected", "gauge", (), "1 while the applier is attached to a live shipping session."),
    ("koko_replication_lag_bytes", "gauge", (), "Byte distance behind the primary's durable end (-1 = unknown)."),
    ("koko_replication_records_applied", "gauge", (), "Shipped WAL records applied since this replica bootstrapped."),
    ("koko_result_cache_evictions_total", "counter", ("reason",), "Full-result cache evictions (stale = generation turnover)."),
    ("koko_result_cache_hits_total", "counter", (), "Full-result cache hits."),
    ("koko_result_cache_misses_total", "counter", (), "Full-result cache misses."),
    ("koko_router_failovers_total", "counter", (), "Replicas that failed mid-query and were routed around."),
    ("koko_router_primary_queries_total", "counter", (), "Queries the router served from the primary."),
    ("koko_router_rejections_total", "counter", ("reason",), "Replicas skipped per staleness/health reason."),
    ("koko_router_replica_queries_total", "counter", ("replica",), "Queries the router served per replica."),
    ("koko_rpc_executor_queue_wait_seconds", "histogram", (), "Time a dispatched request waited for an executor thread"),
    ("koko_rpc_faults_total", "counter", ("code",), "RPC requests answered with a fault"),
    ("koko_rpc_inflight_requests", "gauge", (), "RPC requests currently being dispatched"),
    ("koko_rpc_open_connections", "gauge", (), "Currently open RPC connections"),
    ("koko_rpc_request_seconds", "histogram", ("op",), "RPC request service time"),
    ("koko_rpc_requests_total", "counter", ("op",), "RPC requests received"),
    ("koko_rpc_transport_errors_total", "counter", ("kind",), "RPC connections dropped by fault kind"),
    ("koko_shard_cache_hits_total", "counter", ("shard",), "Per-shard partial-cache hits."),
    ("koko_shard_cache_lru_evictions_total", "counter", ("shard",), "Per-shard partial-cache capacity evictions."),
    ("koko_shard_cache_misses_total", "counter", ("shard",), "Per-shard partial-cache misses."),
    ("koko_shard_cache_stale_evictions_total", "counter", ("shard",), "Per-shard partial-cache generation evictions."),
    ("koko_shard_partials_computed_total", "counter", (), "Shard partial results computed (partial-cache misses)."),
    ("koko_shard_partials_patched_total", "counter", (), "Computed shard partials patched from a stale partial, not recomputed whole."),
    ("koko_shard_partials_reused_total", "counter", (), "Shard partial results served from the partial cache."),
    ("koko_shipper_records_shipped_total", "counter", (), "WAL records shipped to followers across all sessions."),
    ("koko_shipper_sessions", "gauge", (), "Live follower shipping sessions."),
    ("koko_shipper_snapshot_bytes_shipped_total", "counter", (), "Snapshot bytes shipped during follower bootstraps."),
    ("koko_shipper_stalled_sessions", "gauge", (), "Sessions whose follower stopped acking within the stall timeout."),
    ("koko_slow_ops_total", "counter", ("kind",), "Operations that crossed their slow-op threshold."),
    ("koko_tokens_ingested_total", "counter", (), "Annotated tokens ingested."),
    ("koko_traces_sampled_total", "counter", (), "Operations traced into a span tree."),
    ("koko_wal_batch_records", "histogram", (), "Group-commit batch sizes (power-of-two buckets)."),
    ("koko_wal_bytes_appended_total", "counter", (), "Framed bytes appended to the WAL."),
    ("koko_wal_fsyncs_total", "counter", (), "Group-commit fsyncs performed."),
    ("koko_wal_max_batch_records", "gauge", (), "Largest group-commit batch observed."),
    ("koko_wal_records_appended_total", "counter", (), "Records appended to the WAL."),
    ("koko_wal_records_synced_total", "counter", (), "Records made durable by fsyncs."),
]


def surface(registry) -> dict[str, tuple]:
    """``{name: (name, kind, label names, help)}`` as the registry exposes it."""
    helps = {}
    for line in registry.render_text().splitlines():
        if line.startswith("# HELP "):
            name, _, text = line[len("# HELP ") :].partition(" ")
            helps[name] = text
    described = {}
    for name in registry.names():
        metric = registry.get(name)
        labels = tuple(getattr(metric, "labelnames", ()))
        described[name] = (name, metric.kind, labels, helps.get(name, ""))
    return described


def test_the_metric_surface_of_a_serving_cluster_is_pinned(
    make_tcp_cluster, listen_ready
):
    cluster = make_tcp_cluster(shards=4, texts=TEXTS)
    server = RpcServer(cluster.primary)
    try:
        with RpcClient(*listen_ready(*server.start())) as client:
            client.query(CITY_QUERY)  # a miss
            client.query(CITY_QUERY)  # a hit, answered on the event loop
            client.add_document("Maria ate a delicious pie in Tokyo.", doc_id="extra")
            cluster.router.query(CITY_QUERY)
            cluster.primary.remove_document("doc0")
            cluster.primary.checkpoint()
            token = cluster.primary.wal_position()
            assert cluster.replica.wait_caught_up(token, timeout=30)
            cluster.router.query(CITY_QUERY)
    finally:
        server.close()
    primary = surface(cluster.primary.metrics)
    replica = surface(cluster.replica.metrics)
    shared = set(primary) & set(replica)
    assert {name: primary[name] for name in shared} == {
        name: replica[name] for name in shared
    }
    assert sorted({**primary, **replica}.values()) == SURFACE
