"""End-to-end RPC serving acceptance.

The PR's core claims: results over the wire are tuple-identical to
in-process calls at shards 1 and 4, served by the primary AND a TCP
replica; read-your-writes tokens travel through the RPC tier; admission
control rejects only the offending client; deadlines cancel server work;
bulk ingest amortizes claim/commit rounds; pipelined acks defer
durability behind an explicit flush barrier.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.errors import (
    RpcBadRequest,
    RpcDeadlineExceeded,
    RpcRateLimited,
    RpcReadOnly,
    RpcStaleRead,
    RpcUnavailable,
)
from repro.persistence import WalPosition
from repro.rpc import AdmissionPolicy, AsyncRpcClient, RpcClient, RpcServer
from repro.service import KokoService
from repro.service.ingest import IngestState

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)
CITY_QUERY = (
    'extract a:GPE from "input.txt" if () satisfying a '
    '(a SimilarTo "city" {1.0}) with threshold 0.3'
)

TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "cities in asian countries such as Beijing and Tokyo.",
    "Paolo visited Beijing and ate a delicious croissant.",
    "Maria ate a delicious pie in Tokyo.",
    "The barista in Osaka served a delicious espresso.",
]


def as_rows(result):
    return [(t.doc_id, t.sid, t.values, t.scores) for t in result]


@pytest.fixture
def rpc_client(listen_ready):
    """Factory: an ``RpcServer`` on *node* plus a connected client."""
    servers, clients = [], []

    def _connect(node, **server_kwargs) -> RpcClient:
        server = RpcServer(node, **server_kwargs)
        servers.append(server)
        host, port = listen_ready(*server.start())
        client = RpcClient(
            host, port, auth_token=server_kwargs.get("auth_token")
        )
        clients.append(client)
        return client

    try:
        yield _connect
    finally:
        for client in clients:
            client.close()
        for server in servers:
            server.close()


# ----------------------------------------------------------------------
# acceptance: tuple-identical through the wire, primary and replica
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 4])
def test_rpc_results_tuple_identical_from_primary_and_replica(
    make_tcp_cluster, rpc_client, shards
):
    primary, _shipper, replica, _router, _h, _p = make_tcp_cluster(
        shards=shards, texts=TEXTS
    )
    primary_client = rpc_client(primary, name="primary-rpc")
    replica_client = rpc_client(replica, name="replica-rpc")
    for query in (ENTITY_QUERY, CITY_QUERY):
        local = as_rows(primary.query(query))
        assert as_rows(primary_client.query(query)) == local
        assert as_rows(replica_client.query(query)) == local
    info = primary_client.info()
    assert info == {
        "name": "primary-rpc",
        "kind": "service",
        "documents": len(TEXTS),
        "shards": shards,
    }
    assert replica_client.info()["kind"] == "replica"


def test_replica_rpc_rejects_writes(make_tcp_cluster, rpc_client):
    cluster = make_tcp_cluster(texts=TEXTS[:1])
    replica_client = rpc_client(cluster.replica)
    with pytest.raises(RpcReadOnly):
        replica_client.add_document("nope")
    with pytest.raises(RpcReadOnly):
        replica_client.remove_document("doc0")
    # the connection survives the typed fault
    assert replica_client.ping()["ok"]


# ----------------------------------------------------------------------
# read-your-writes tokens through the wire
# ----------------------------------------------------------------------
def test_read_your_writes_token_through_rpc(make_tcp_cluster, rpc_client):
    primary, _shipper, replica, router, _h, _p = make_tcp_cluster(texts=TEXTS[:3])
    primary_client = rpc_client(primary)
    replica_client = rpc_client(replica)

    ack = primary_client.add_document(TEXTS[3], doc_id="doc3")
    token = ack["token"]
    assert isinstance(token, WalPosition) and ack["durable"]

    # a token the replica has not reached yet is a typed stale_read ...
    future = WalPosition(token.segment_id + 1000, 0)
    with pytest.raises(RpcStaleRead):
        replica_client.query(CITY_QUERY, read_your_writes=future)
    # ... and once caught up past the real token, the read serves
    assert replica.wait_caught_up(token, timeout=30)
    assert as_rows(
        replica_client.query(CITY_QUERY, read_your_writes=token)
    ) == as_rows(primary.query(CITY_QUERY))


def test_router_rpc_routes_writes_and_token_reads(make_tcp_cluster, rpc_client):
    primary, _shipper, _replica, router, _h, _p = make_tcp_cluster(texts=TEXTS[:2])
    router_client = rpc_client(router, name="router-rpc")
    assert router_client.info()["kind"] == "router"

    ack = router_client.add_document(TEXTS[4], doc_id="doc-tokyo")
    assert ack["token"] is not None
    rows = as_rows(
        router_client.query(ENTITY_QUERY, read_your_writes=ack["token"])
    )
    assert rows == as_rows(primary.query(ENTITY_QUERY))

    bulk = router_client.add_documents(TEXTS[5:], doc_ids=["doc-osaka"])
    assert bulk["count"] == 1 and bulk["token"] is not None
    rows = as_rows(router_client.query(CITY_QUERY, read_your_writes=bulk["token"]))
    assert rows == as_rows(primary.query(CITY_QUERY))


# ----------------------------------------------------------------------
# admission: only the offending client is rejected
# ----------------------------------------------------------------------
def test_rate_limited_client_faults_while_others_proceed(listen_ready):
    with KokoService(shards=1) as service:
        service.add_document(TEXTS[0], "doc0")
        policy = AdmissionPolicy(query_rate=0.001, query_burst=2.0)
        with RpcServer(service, admission=policy) as server:
            host, port = listen_ready(*server.address)
            greedy = RpcClient(host, port, client_id="greedy")
            polite = RpcClient(host, port, client_id="polite")
            try:
                greedy.query(ENTITY_QUERY)
                greedy.query(ENTITY_QUERY)  # burst spent
                with pytest.raises(RpcRateLimited):
                    greedy.query(ENTITY_QUERY)
                # fairness: the other client draws from its own bucket
                assert as_rows(polite.query(ENTITY_QUERY)) == as_rows(
                    service.query(ENTITY_QUERY)
                )
                # the rejected client's connection survives for later calls
                assert greedy.ping()["ok"]
                # ingest is its own, here unlimited, bucket: writes admit
                greedy.add_document(TEXTS[1], doc_id="doc1")
            finally:
                greedy.close()
                polite.close()


def test_ingest_rate_limit_is_independent_of_queries(rpc_client):
    with KokoService(shards=1) as service:
        policy = AdmissionPolicy(ingest_rate=0.001, ingest_burst=1.0)
        client = rpc_client(service, admission=policy)
        client.add_document(TEXTS[0], doc_id="doc0")  # burst spent
        with pytest.raises(RpcRateLimited):
            client.add_document(TEXTS[1], doc_id="doc1")
        # queries are a different kind: unlimited here
        for _ in range(5):
            client.query(ENTITY_QUERY)


# ----------------------------------------------------------------------
# deadlines: expired budgets cancel server work
# ----------------------------------------------------------------------
def test_expired_deadline_never_starts_shard_work(rpc_client, monkeypatch):
    with KokoService(shards=4) as service:
        for index, text in enumerate(TEXTS):
            service.add_document(text, f"doc{index}")
        client = rpc_client(service)
        scans = []
        original = KokoService._execute_shard

        def counting(self, *args, **kwargs):
            scans.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(KokoService, "_execute_shard", counting)
        with pytest.raises(RpcDeadlineExceeded):
            client.query(ENTITY_QUERY, deadline=0.0)
        assert scans == []  # rejected before any shard ran


def test_inflight_deadline_returns_before_the_work_finishes(
    rpc_client, monkeypatch
):
    with KokoService(shards=2) as service:
        for index, text in enumerate(TEXTS[:3]):
            service.add_document(text, f"doc{index}")
        client = rpc_client(service)
        gate = threading.Event()
        original = KokoService._execute_shard

        def wedged(self, *args, **kwargs):
            gate.wait(5.0)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(KokoService, "_execute_shard", wedged)
        try:
            started = time.monotonic()
            with pytest.raises(RpcDeadlineExceeded):
                client.query(ENTITY_QUERY, deadline=0.2)
            # the fault arrived on the deadline, not when the gate opened
            assert time.monotonic() - started < 3.0
        finally:
            gate.set()


def test_server_default_deadline_applies_when_request_has_none(
    rpc_client, monkeypatch
):
    with KokoService(shards=1) as service:
        service.add_document(TEXTS[0], "doc0")
        client = rpc_client(service, default_deadline=0.15)
        gate = threading.Event()
        original = KokoService._execute_shard

        def wedged(self, *args, **kwargs):
            gate.wait(5.0)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(KokoService, "_execute_shard", wedged)
        try:
            with pytest.raises(RpcDeadlineExceeded):
                client.query(ENTITY_QUERY)
        finally:
            gate.set()


# ----------------------------------------------------------------------
# bulk ingest: claim/commit rounds are amortized per batch
# ----------------------------------------------------------------------
def test_bulk_ingest_amortizes_claim_and_commit_rounds(
    tmp_path, rpc_client, monkeypatch
):
    with KokoService(shards=2, storage_dir=tmp_path / "svc") as service:
        client = rpc_client(service)
        claims, commits = [], []
        original_claim = IngestState.claim
        original_commit = IngestState.commit

        def counting_claim(self, ops):
            claims.append(len(ops))
            return original_claim(self, ops)

        def counting_commit(self, ops):
            commits.append(len(ops))
            return original_commit(self, ops)

        monkeypatch.setattr(IngestState, "claim", counting_claim)
        monkeypatch.setattr(IngestState, "commit", counting_commit)

        texts = [f"{text} bulk variation {index}" for index in range(12)
                 for text in TEXTS[:1]]
        ack = client.add_documents(texts, batch_size=4)
        assert ack["count"] == 12 and len(ack["doc_ids"]) == 12
        # 12 docs at batch_size=4: exactly ceil(12/4) = 3 rounds of each,
        # every one carrying a whole chunk (no per-document fallback)
        assert claims == [4, 4, 4] and commits == [4, 4, 4]
        assert len(service) == 12


# ----------------------------------------------------------------------
# pipelined acks: splice first, durability behind the flush barrier
# ----------------------------------------------------------------------
def test_pipelined_ack_defers_durability_until_flush(tmp_path, rpc_client):
    with KokoService(shards=1, storage_dir=tmp_path / "svc") as service:
        client = rpc_client(service)
        ack = client.add_document(TEXTS[0], doc_id="doc0", wait_durable=False)
        assert ack["durable"] is False  # acked before the fsync
        # spliced: the document is queryable before it is durable
        assert as_rows(client.query(ENTITY_QUERY)) == as_rows(
            service.query(ENTITY_QUERY)
        )
        token = client.flush()["token"]
        assert isinstance(token, WalPosition)
        assert service.wal_position() >= token


def test_bulk_ingest_wait_durable_false_defers_the_fsync(tmp_path, rpc_client):
    with KokoService(shards=1, storage_dir=tmp_path / "svc") as service:
        client = rpc_client(service)
        ack = client.add_documents(TEXTS[:3], wait_durable=False)
        assert ack["count"] == 3 and ack["durable"] is False
        assert client.flush()["token"] is not None
        assert len(service) == 3


# ----------------------------------------------------------------------
# protocol odds and ends
# ----------------------------------------------------------------------
def test_bad_query_is_a_typed_bad_request(rpc_client):
    with KokoService(shards=1) as service:
        client = rpc_client(service)
        with pytest.raises(RpcBadRequest):
            client.query("this is not a koko query")
        with pytest.raises(RpcBadRequest):
            client._call("no_such_op", {}, None)
        assert client.ping()["ok"]  # still serving after both faults


def test_query_batch_shares_one_connection_round(rpc_client):
    with KokoService(shards=1) as service:
        for index, text in enumerate(TEXTS[:2]):
            service.add_document(text, f"doc{index}")
        client = rpc_client(service)
        results = client.query_batch([ENTITY_QUERY, CITY_QUERY])
        assert as_rows(results[0]) == as_rows(service.query(ENTITY_QUERY))
        assert as_rows(results[1]) == as_rows(service.query(CITY_QUERY))


def test_server_close_makes_clients_unavailable(listen_ready):
    with KokoService(shards=1) as service:
        server = RpcServer(service)
        host, port = listen_ready(*server.start())
        client = RpcClient(host, port)
        assert client.ping()["ok"]
        server.close()
        with pytest.raises(RpcUnavailable):
            for _ in range(3):  # first call may still drain a buffered reply
                client.ping()
        client.close()


def test_rpc_metrics_land_in_the_node_registry(rpc_client):
    with KokoService(shards=1) as service:
        service.add_document(TEXTS[0], "doc0")
        client = rpc_client(service)
        client.query(ENTITY_QUERY)
        with pytest.raises(RpcBadRequest):
            client.query("nope")
        registry = service.metrics
        requests = registry.counter(
            "koko_rpc_requests_total", "RPC requests received", ("op",)
        )
        faults = registry.counter(
            "koko_rpc_faults_total", "RPC requests answered with a fault", ("code",)
        )
        assert requests.labels("query").value >= 2
        assert faults.labels("bad_request").value >= 1
        rendered = registry.render_text()
        assert "koko_rpc_request_seconds" in rendered
        assert "koko_rpc_open_connections" in rendered


def test_async_client_serves_concurrent_requests(listen_ready):
    with KokoService(shards=2) as service:
        for index, text in enumerate(TEXTS[:3]):
            service.add_document(text, f"doc{index}")
        expected = as_rows(service.query(ENTITY_QUERY))
        with RpcServer(service, auth_token=b"tok") as server:
            host, port = listen_ready(*server.address)

            async def drive():
                clients = await asyncio.gather(
                    *(
                        AsyncRpcClient.connect(host, port, auth_token=b"tok")
                        for _ in range(3)
                    )
                )
                try:
                    results = await asyncio.gather(
                        *(client.query(ENTITY_QUERY) for client in clients)
                    )
                    pong = await clients[0].ping()
                    assert pong["ok"]
                    return results
                finally:
                    for client in clients:
                        await client.close()

            results = asyncio.run(drive())
        assert all(as_rows(result) == expected for result in results)


def test_readyz_covers_the_rpc_front_door(listen_ready):
    from repro.observability import TelemetryServer, http_get_json

    with KokoService(shards=1) as service:
        rpc = RpcServer(service)
        rpc.start()
        telemetry = TelemetryServer(service, rpc_server=rpc)
        listen_ready(*telemetry.start())
        try:
            status, body = http_get_json(*telemetry.address, "/readyz")
            assert status == 200 and body["checks"]["rpc_listening"] is True
            rpc.close()
            status, body = http_get_json(*telemetry.address, "/readyz")
            assert status == 503 and body["checks"]["rpc_listening"] is False
        finally:
            telemetry.close()
            rpc.close()


def test_non_loopback_rpc_listener_requires_auth_or_opt_out():
    from repro.errors import ReplicationError

    with KokoService(shards=1) as service:
        with pytest.raises(ReplicationError, match="unauthenticated"):
            RpcServer(service, host="0.0.0.0")
        server = RpcServer(service, host="0.0.0.0", allow_unauthenticated=True)
        host, port = server.start()
        assert port > 0
        server.close()
