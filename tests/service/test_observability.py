"""Service-level observability: explain traces, slow-op log, registry wiring.

The acceptance criteria of the observability work land here:

* ``explain=True`` returns tuple-identical results to a plain query at
  1 and 4 shards, with a span tree covering every pipeline stage, the
  shard fan-out, and both cache lookups;
* sampled-off tracing allocates **zero** spans (the overhead guard);
* the slow-op ring captures structured query/ingest/remove entries with
  per-stage timings and — on a durable service — WAL append/fsync spans;
* one registry exposes service, persistence, and replication-lag
  metrics together.
"""

from __future__ import annotations

import socket

import pytest

import repro.replication.shipper as shipper_module
import repro.service.service as service_module
from repro.errors import ServiceError
from repro.observability import ExplainedResult
from repro.replication import LogShipper, ReplicaService, TcpTransport
from repro.service import KokoService

CITY_QUERY = (
    'extract a:GPE from "input.txt" if () satisfying a '
    '(a SimilarTo "city" {1.0}) with threshold 0.3'
)

TEXTS = {
    "doc0": "Paris is a beautiful city with many museums.",
    "doc1": "The barista in Osaka served a delicious espresso.",
    "doc2": "cities in asian countries such as Beijing and Tokyo.",
    "doc3": "Maria ate a delicious pie in Tokyo.",
}

#: every span an explain=True query tree must contain (any shard count)
REQUIRED_QUERY_SPANS = {
    "query",
    "result_cache",
    "plan_cache",
    "shard_fanout",
    "normalize",
    "dpli",
    "load",
    "extract",
    "aggregate",
}


def as_rows(result):
    return [(t.doc_id, t.sid, t.values, t.scores) for t in result]


def service_with_docs(**kwargs) -> KokoService:
    svc = KokoService(**kwargs)
    for doc_id, text in TEXTS.items():
        svc.add_document(text, doc_id)
    return svc


# ----------------------------------------------------------------------
# explain=True: identity + coverage (acceptance, shards 1 and 4)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 4])
def test_explain_is_tuple_identical_and_covers_all_stages(shards):
    svc = service_with_docs(shards=shards)
    plain = svc.query(CITY_QUERY)
    explained = svc.query(CITY_QUERY, explain=True)
    assert isinstance(explained, ExplainedResult)
    assert as_rows(explained) == as_rows(plain)
    assert len(explained) == len(plain)

    names = explained.trace.names()
    assert REQUIRED_QUERY_SPANS <= names
    if shards > 1:
        assert "merge" in names
    # one pass over every shard, even on a warm cache: explain bypasses the
    # result and partial caches, so the pass covers all of them and holds
    # each stage span exactly once
    fanout = explained.trace.find("shard_fanout")
    assert fanout is not None
    assert fanout.attributes == {
        "shards": shards, "executed": shards, "reused": 0, "patched": 0
    }
    assert [child.name for child in fanout.children] == ["pass"]
    one_pass = fanout.children[0]
    assert one_pass.attributes["shard_ids"] == list(range(shards))
    assert one_pass.attributes["tuples"] == len(plain)
    assert [child.name for child in one_pass.children] == [
        "normalize", "dpli", "load", "extract", "aggregate"
    ]
    report = explained.report()
    assert report.splitlines()[0].startswith("query")
    assert "ms" in report
    svc.close()


def test_explain_reexecutes_on_a_result_cache_hit():
    svc = service_with_docs()
    svc.query(CITY_QUERY)  # warm the result cache
    explained = svc.query(CITY_QUERY, explain=True)
    cache_span = explained.trace.find("result_cache")
    assert cache_span is not None and cache_span.attributes["hit"] is True
    # ...yet the pipeline ran: the per-stage spans exist with real timings
    assert explained.trace.find("aggregate") is not None
    svc.close()


# ----------------------------------------------------------------------
# sampling + the overhead guard
# ----------------------------------------------------------------------
def test_sampled_off_tracing_allocates_zero_spans():
    svc = service_with_docs(
        trace_sample_rate=0.0, slow_query_ms=None, slow_ingest_ms=None
    )
    for _ in range(3):
        svc.query(CITY_QUERY)
    assert svc.metrics.get("koko_traces_sampled_total").value == 0
    assert svc.metrics.get("koko_slow_ops_total").snapshot_value() == {}
    assert svc.recent_slow_ops() == []
    svc.close()


def test_sampled_on_tracing_counts_operations():
    svc = service_with_docs(
        trace_sample_rate=1.0, slow_query_ms=None, slow_ingest_ms=None
    )
    svc.query(CITY_QUERY)
    # 4 ingests + 1 query, each sampled at rate 1.0
    assert svc.metrics.get("koko_traces_sampled_total").value == 5
    svc.close()


def test_trace_and_threshold_parameters_are_validated():
    with pytest.raises(ServiceError):
        KokoService(trace_sample_rate=1.5)
    with pytest.raises(ServiceError):
        KokoService(slow_query_ms=-1.0)
    with pytest.raises(ServiceError):
        KokoService(slow_ingest_ms=-0.5)


# ----------------------------------------------------------------------
# the slow-op log
# ----------------------------------------------------------------------
def test_slow_query_entries_carry_stage_breakdown_and_cache_outcomes():
    svc = service_with_docs(slow_query_ms=0.0, slow_ingest_ms=None)
    svc.query(CITY_QUERY)
    entry = svc.recent_slow_ops(1)[0]
    assert entry["kind"] == "query"
    assert entry["duration_ms"] >= 0.0
    assert len(entry["query_sha1"]) == 12
    assert entry["cache"] == {"result_cache_hit": False, "plan_cache_hit": False}
    assert set(entry["stages_ms"]) == {
        "normalize", "dpli", "load", "gsp", "extract", "aggregate",
    }
    assert entry["tuples"] == len(svc.query(CITY_QUERY))
    svc.close()


def test_slow_ingest_entries_cover_the_durable_write_path(tmp_path):
    svc = KokoService(
        storage_dir=tmp_path / "svc",
        trace_sample_rate=1.0,
        slow_query_ms=None,
        slow_ingest_ms=0.0,
        slow_op_log_path=tmp_path / "slow.jsonl",
    )
    svc.add_document(TEXTS["doc0"], "doc0")
    svc.remove_document("doc0")
    remove_entry, ingest_entry = svc.recent_slow_ops(2)
    assert ingest_entry["kind"] == "ingest"
    assert ingest_entry["wal"]["frame_bytes"] > 0
    assert set(ingest_entry["stages_ms"]) == {"annotate", "wal", "splice"}

    def span_names(node, acc):
        acc.add(node["name"])
        for child in node.get("children", ()):
            span_names(child, acc)
        return acc

    assert {"ingest", "annotate", "wal", "wal_append", "fsync_wait", "splice"} <= (
        span_names(ingest_entry["trace"], set())
    )
    assert remove_entry["kind"] == "remove"
    assert set(remove_entry["stages_ms"]) == {"wal", "unsplice"}
    svc.close()
    assert (tmp_path / "slow.jsonl").read_text().count('"kind"') == 2


def test_the_slow_op_file_rotates_at_the_service_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(service_module, "SLOW_OP_LOG_MAX_BYTES", 2048)
    path = tmp_path / "slow.jsonl"
    svc = service_with_docs(
        slow_query_ms=0.0, slow_ingest_ms=None, slow_op_log_path=path
    )
    for _ in range(20):
        svc.query(CITY_QUERY)
    svc.close()
    assert (tmp_path / "slow.jsonl.1").exists()
    assert 0 < path.stat().st_size <= 2048
    assert len(svc.recent_slow_ops()) == 20


# ----------------------------------------------------------------------
# registry wiring
# ----------------------------------------------------------------------
def test_registry_exposes_service_and_durability_metrics(tmp_path):
    svc = KokoService(storage_dir=tmp_path / "svc")
    svc.add_document(TEXTS["doc0"], "doc0")
    svc.query(CITY_QUERY)
    assert svc.metrics.get("koko_last_checkpoint_unix").value == 0
    assert svc.checkpoint() is not None
    assert svc.metrics.get("koko_last_checkpoint_unix").value > 0
    assert svc.metrics.get("koko_checkpoint_in_progress").value == 0
    assert svc.metrics.get("koko_checkpoint_in_progress").value == 0

    text = svc.metrics.render_text()
    for name in (
        "koko_queries_served_total",
        "koko_query_latency_seconds_bucket",
        "koko_shard_cache_misses_total",
        "koko_wal_records_appended_total",
        "koko_wal_batch_records_bucket",
        "koko_checkpoints_completed_total",
    ):
        assert name in text, name
    svc.close()


def test_one_registry_spans_service_persistence_and_replication(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(shipper_module, "POLL_SECONDS", 0.01)
    monkeypatch.setattr(shipper_module, "HEARTBEAT_SECONDS", 0.05)
    primary = KokoService(storage_dir=tmp_path / "svc")
    primary.add_document(TEXTS["doc0"], "doc0")
    primary.checkpoint()
    shipper = LogShipper(primary)
    primary_end, replica_end = map(TcpTransport, socket.socketpair())
    shipper.serve(primary_end)
    replica = ReplicaService(replica_end, name="r1")
    primary.add_document(TEXTS["doc1"], "doc1")
    assert replica.wait_caught_up(primary.wal_position())

    text = primary.metrics.render_text()
    for name in (
        "koko_wal_records_appended_total",  # persistence
        "koko_shipper_sessions",  # replication, primary side
        "koko_shipper_records_shipped_total",
        "koko_shipper_snapshot_bytes_shipped_total",
    ):
        assert name in text, name
    assert primary.metrics.get("koko_shipper_sessions").value == 1
    assert primary.metrics.get("koko_shipper_records_shipped_total").value >= 1

    replica_text = replica.metrics.render_text()
    for name in (
        "koko_replication_connected",
        "koko_replication_lag_bytes",
        "koko_replication_records_applied",
        "koko_replication_apply_seconds",
    ):
        assert name in replica_text, name
    assert replica.metrics.get("koko_replication_connected").value == 1.0
    assert replica.metrics.get("koko_replication_lag_bytes").value == 0.0
    assert replica.metrics.get("koko_replication_records_applied").value >= 1.0

    replica.close()
    shipper.close()
    assert replica.metrics.get("koko_replication_connected").value == 0.0
    primary.close()
