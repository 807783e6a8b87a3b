"""Unit tests for the per-node trace store, stitching, and /traces JSON.

Covers the tentpole's storage layer: the bounded fragment ring, the
parent-link stitcher that ``/cluster/traces/<id>`` relies on, and a
golden test pinning the ``/traces`` endpoint's JSON schema so dashboards
scraping it don't silently break.
"""

from __future__ import annotations

import json

import pytest

from repro.observability import (
    Span,
    TelemetryServer,
    TraceContext,
    TraceStore,
    http_get_json,
    stitch_fragments,
)


def _fragment(store, trace_id, span_id, parent=None, **kwargs):
    context = TraceContext(trace_id=trace_id, span_id=span_id)
    span = Span.completed(kwargs.pop("name", "op"), kwargs.pop("seconds", 0.001))
    return store.record(context, span, parent_span_id=parent, **kwargs)


# ----------------------------------------------------------------------
# the ring
# ----------------------------------------------------------------------
def test_store_keeps_fragments_grouped_by_trace():
    store = TraceStore(capacity=4)
    _fragment(store, "t1", "a", name="rpc.server", kind="rpc", node="n0")
    _fragment(store, "t1", "b", parent="a", name="ingest", kind="ingest", node="n0")
    _fragment(store, "t2", "c", name="query", kind="query")

    assert len(store) == 2
    assert store.recorded_total == 3
    fragments = store.get("t1")
    assert [f["span_id"] for f in fragments] == ["a", "b"]
    assert fragments[1]["parent_span_id"] == "a"
    assert fragments[1]["node"] == "n0"
    assert store.get("missing") is None


def test_store_evicts_oldest_trace_at_capacity():
    store = TraceStore(capacity=2)
    for index in range(4):
        _fragment(store, f"t{index}", f"s{index}")
    assert len(store) == 2
    assert store.get("t0") is None and store.get("t1") is None
    assert store.get("t2") is not None and store.get("t3") is not None


def test_store_bounds_fragments_per_trace():
    store = TraceStore(capacity=2, max_fragments_per_trace=3)
    for index in range(5):
        _fragment(store, "t", f"s{index}")
    assert len(store.get("t")) == 3
    assert store.recorded_total == 3  # dropped fragments don't count


def test_store_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        TraceStore(capacity=0)


def test_recent_summaries_are_newest_first():
    store = TraceStore(capacity=8)
    _fragment(store, "old", "a", name="ingest", kind="ingest")
    _fragment(store, "new", "b", name="query", kind="query")
    _fragment(store, "new", "c", parent="b", name="rpc.server", kind="rpc")

    summaries = store.recent(limit=10)
    assert [s["trace_id"] for s in summaries] == ["new", "old"]
    newest = summaries[0]
    assert newest["fragments"] == 2
    assert newest["kinds"] == ["query", "rpc"]
    assert newest["root_names"] == ["query", "rpc.server"]

    store.clear()
    assert len(store) == 0 and store.recent() == []


# ----------------------------------------------------------------------
# stitching
# ----------------------------------------------------------------------
def test_stitch_nests_fragments_by_parent_span_id():
    store = TraceStore()
    _fragment(store, "t", "client", name="rpc.call", kind="client", node="client")
    _fragment(
        store, "t", "server", parent="client", name="rpc.server", kind="rpc",
        node="primary",
    )
    _fragment(
        store, "t", "ingest", parent="server", name="ingest", kind="ingest",
        node="primary",
    )
    _fragment(
        store, "t", "apply", parent="ingest", name="replica.apply", kind="apply",
        node="replica",
    )
    tree = stitch_fragments(store.get("t"))

    assert tree["fragments"] == 4
    assert tree["nodes"] == ["client", "primary", "replica"]
    (root,) = tree["roots"]
    assert root["span_id"] == "client"
    (server,) = root["children"]
    (ingest,) = server["children"]
    (apply_fragment,) = ingest["children"]
    assert apply_fragment["root"]["name"] == "replica.apply"


def test_stitch_orphans_and_cycles_become_roots_not_crashes():
    fragments = [
        {
            "trace_id": "t", "span_id": "x", "parent_span_id": "ghost",
            "kind": "span", "node": None, "ts_unix": 2.0, "ms": 1.0,
            "root": {"name": "orphan", "ms": 1.0},
        },
        {
            "trace_id": "t", "span_id": "self", "parent_span_id": "self",
            "kind": "span", "node": None, "ts_unix": 1.0, "ms": 1.0,
            "root": {"name": "cycle", "ms": 1.0},
        },
    ]
    tree = stitch_fragments(fragments)
    assert tree["fragments"] == 2
    # ts_unix orders the roots: the cycle fragment started first
    assert [r["root"]["name"] for r in tree["roots"]] == ["cycle", "orphan"]
    assert all(r["children"] == [] for r in tree["roots"])


def test_stitch_children_are_ordered_by_aligned_wall_clock():
    fragments = []
    for index, (span_id, ts) in enumerate([("late", 30.0), ("early", 10.0)]):
        fragments.append(
            {
                "trace_id": "t", "span_id": span_id, "parent_span_id": "root",
                "kind": "span", "node": None, "ts_unix": ts, "ms": 1.0,
                "root": {"name": span_id, "ms": 1.0},
            }
        )
    fragments.append(
        {
            "trace_id": "t", "span_id": "root", "parent_span_id": None,
            "kind": "span", "node": None, "ts_unix": 5.0, "ms": 50.0,
            "root": {"name": "root", "ms": 50.0},
        }
    )
    tree = stitch_fragments(fragments)
    (root,) = tree["roots"]
    assert [child["span_id"] for child in root["children"]] == ["early", "late"]


# ----------------------------------------------------------------------
# golden: the /traces JSON schema
# ----------------------------------------------------------------------
FRAGMENT_KEYS = {
    "trace_id", "span_id", "parent_span_id", "kind", "node", "ts_unix", "ms",
    "root",
}
SUMMARY_KEYS = {"trace_id", "fragments", "kinds", "ts_unix", "ms", "root_names"}


def test_traces_endpoint_json_schema_is_pinned(listen_ready):
    """Golden: the exact key sets served at /traces and /traces/<id>.

    Dashboards and the cluster assembler consume these documents; a key
    rename or type change must fail a test, not a scrape.
    """
    from repro.service import KokoService

    with KokoService(shards=1, trace_sample_rate=1.0) as service:
        service.add_document("Anna ate some delicious cheesecake.", "d0")
        with TelemetryServer(service, name="golden") as server:
            listen_ready(*server.address)
            status, listing = http_get_json(*server.address, "/traces")
            assert status == 200
            assert set(listing) == {"node", "stored", "recorded_total", "traces"}
            assert listing["node"] == "golden"
            assert listing["stored"] >= 1
            summary = listing["traces"][0]
            assert set(summary) == SUMMARY_KEYS
            assert isinstance(summary["kinds"], list)
            assert isinstance(summary["ts_unix"], float)

            trace_id = summary["trace_id"]
            status, document = http_get_json(*server.address, f"/traces/{trace_id}")
            assert status == 200
            assert set(document) == {"node", "trace_id", "fragments"}
            fragment = document["fragments"][0]
            assert set(fragment) == FRAGMENT_KEYS
            assert fragment["trace_id"] == trace_id
            assert fragment["kind"] == "ingest"
            assert isinstance(fragment["root"]["name"], str)
            assert isinstance(fragment["root"]["ms"], float)
            # round-trippable: the document is plain JSON all the way down
            json.loads(json.dumps(document))

            status, _ = http_get_json(*server.address, "/traces/nonexistent")
            assert status == 404
