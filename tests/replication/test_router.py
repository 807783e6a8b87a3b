"""ReplicaSet routing: round-robin, read-your-writes tokens, lag bounds,
failover — unit-tested against stub replicas, plus one live integration."""

from __future__ import annotations

import socket
import time

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.persistence import WalPosition
from repro.replication import LogShipper, ReplicaService, ReplicaSet, TcpTransport
from repro.replication import router as router_module
from repro.service import KokoService

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)

TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "Paolo visited Beijing and ate a delicious croissant.",
]


class StubReplica:
    """The replica surface the router consumes, fully scriptable."""

    def __init__(
        self,
        name: str,
        applied: WalPosition | None = WalPosition(1, 100),
        lag_bytes: int | None = 0,
        connected: bool = True,
    ) -> None:
        self.name = name
        self.applied_position = applied
        self.lag_bytes = lag_bytes
        self.connected = connected
        self.restart_requested = False
        self.queries = 0
        self.fail_next = False

    def caught_up_to(self, token):
        if token is None:
            return True
        return self.applied_position is not None and self.applied_position >= token

    def query(self, query, **kwargs):
        if self.fail_next:
            raise RuntimeError(f"{self.name} exploded")
        self.queries += 1
        return f"{self.name}:{query}"


class StubPrimary:
    """A primary stand-in exposing the bits the router touches."""

    def __init__(self, position=WalPosition(1, 100)) -> None:
        self._position = position
        self.queries = 0
        self.metrics = MetricsRegistry()

    def wal_position(self):
        return self._position

    def query(self, query, **kwargs):
        self.queries += 1
        return f"primary:{query}"


def replica_reads(router) -> dict:
    return router.metrics.get("koko_router_replica_queries_total").values()


def rejections(router, reason: str) -> int:
    return router.metrics.get("koko_router_rejections_total").values().get(reason, 0)


def test_round_robin_spreads_reads_across_replicas():
    primary = StubPrimary()
    replicas = [StubReplica(f"r{i}") for i in range(3)]
    router = ReplicaSet(primary, replicas)
    for _ in range(9):
        router.query("q")
    assert [r.queries for r in replicas] == [3, 3, 3]
    assert primary.queries == 0
    assert replica_reads(router) == {"r0": 3, "r1": 3, "r2": 3}


def test_read_your_writes_token_gates_stale_replicas():
    primary = StubPrimary(position=WalPosition(1, 200))
    fresh = StubReplica("fresh", applied=WalPosition(1, 200))
    stale = StubReplica("stale", applied=WalPosition(1, 50))
    router = ReplicaSet(primary, [stale, fresh])
    token = WalPosition(1, 150)
    for _ in range(4):
        router.query("q", read_your_writes=token)
    assert fresh.queries == 4 and stale.queries == 0
    assert rejections(router, "read_your_writes") >= 2

    # a token beyond every replica routes to the primary
    assert router.query("q", read_your_writes=WalPosition(2, 0)) == "primary:q"
    assert primary.queries == 1


def test_max_lag_bound_rejects_laggards():
    primary = StubPrimary()
    near = StubReplica("near", lag_bytes=10)
    far = StubReplica("far", lag_bytes=10_000)
    unknown = StubReplica("unknown", lag_bytes=None)
    router = ReplicaSet(primary, [far, unknown, near], max_lag_bytes=100)
    for _ in range(3):
        router.query("q")
    assert near.queries == 3
    assert far.queries == 0 and unknown.queries == 0
    assert rejections(router, "lag") >= 2

    # per-query override loosens the bound
    router.query("q", max_lag_bytes=None)
    assert far.queries + unknown.queries == 1


def test_disconnected_and_restarting_replicas_are_skipped():
    primary = StubPrimary()
    dead = StubReplica("dead", connected=False)
    rebooting = StubReplica("rebooting")
    rebooting.restart_requested = True
    live = StubReplica("live")
    router = ReplicaSet(primary, [dead, rebooting, live])
    for _ in range(3):
        router.query("q")
    assert live.queries == 3
    assert dead.queries == 0 and rebooting.queries == 0
    assert rejections(router, "health") >= 3


def test_failover_on_query_error_falls_back_and_suspends():
    primary = StubPrimary()
    flaky = StubReplica("flaky")
    flaky.fail_next = True
    router = ReplicaSet(primary, [flaky])
    assert router.query("q") == "primary:q"  # routed around the failure
    assert router.metrics.get("koko_router_failovers_total").value == 1
    assert router.metrics.get("koko_router_primary_queries_total").value == 1
    # benched: stays out of rotation while the suspension lasts
    assert router.query("q") == "primary:q"
    assert flaky.queries == 0
    flaky.fail_next = False
    flaky.applied_position = WalPosition(1, 101)  # progress lifts the bench
    assert router.query("q") == "flaky:q"


def test_suspension_expires_without_apply_progress(monkeypatch):
    """On a write-idle primary the applied position never moves, so the
    bench must expire on its own — one transient error must not remove a
    replica from rotation permanently."""
    monkeypatch.setattr(router_module, "SUSPEND_SECONDS", 0.05)
    primary = StubPrimary()
    flaky = StubReplica("flaky")
    flaky.fail_next = True
    router = ReplicaSet(primary, [flaky])
    assert router.query("q") == "primary:q"  # failure → benched
    flaky.fail_next = False
    assert router.query("q") == "primary:q"  # still benched
    time.sleep(0.1)  # bench expires; applied position unchanged
    assert router.query("q") == "flaky:q"


def test_stuck_replica_fails_over_after_timeout(monkeypatch):
    monkeypatch.setattr(router_module, "FAILOVER_SECONDS", 0.05)
    primary = StubPrimary(position=WalPosition(1, 500))
    stuck = StubReplica("stuck", applied=WalPosition(1, 100))
    router = ReplicaSet(primary, [stuck])
    assert router.query("q") == "stuck:q"  # first sighting: grace period
    time.sleep(0.1)  # no apply progress while the primary is ahead
    assert router.query("q") == "primary:q"
    # progress brings it back
    stuck.applied_position = WalPosition(1, 500)
    assert router.query("q") == "stuck:q"


def test_query_errors_propagate_without_suspending_replicas():
    """A malformed query is the query's fault: it must raise, not bench
    the replica that faithfully reported it."""
    from repro.errors import KokoSyntaxError

    class StrictReplica(StubReplica):
        def query(self, query, **kwargs):
            raise KokoSyntaxError("bad query")

    primary = StubPrimary()
    replica = StrictReplica("strict")
    router = ReplicaSet(primary, [replica])
    with pytest.raises(KokoSyntaxError):
        router.query("extract !!")
    assert router.metrics.get("koko_router_failovers_total").value == 0
    # the replica is still in rotation for well-formed queries
    healthy = StubReplica("strict2")
    router.add_replica(healthy)
    router.remove_replica(replica)
    assert router.query("q") == "strict2:q"


def test_prefer_primary_bypasses_replicas():
    primary = StubPrimary()
    replica = StubReplica("r0")
    router = ReplicaSet(primary, [replica])
    assert router.query("q", prefer_primary=True) == "primary:q"
    assert replica.queries == 0


def test_membership_add_remove():
    primary = StubPrimary()
    router = ReplicaSet(primary)
    assert len(router) == 0
    assert router.query("q") == "primary:q"  # no replicas: primary serves
    replica = StubReplica("r0")
    router.add_replica(replica)
    assert router.query("q") == "r0:q"
    router.remove_replica(replica)
    assert len(router) == 0
    assert router.query("q") == "primary:q"


# ----------------------------------------------------------------------
# live integration: tokens issued by writes gate real replicas
# ----------------------------------------------------------------------
def test_router_with_live_replicas_and_write_tokens(tmp_path):
    def as_rows(result):
        return [(t.doc_id, t.sid, t.values) for t in result]

    with KokoService(shards=2, storage_dir=tmp_path / "svc") as primary:
        primary.add_document(TEXTS[0], "doc0")
        shipper = LogShipper(primary)
        ends = [tuple(map(TcpTransport, socket.socketpair())) for _ in range(2)]
        for primary_end, _ in ends:
            shipper.serve(primary_end)
        replicas = [
            ReplicaService(replica_end, name=f"r{i}")
            for i, (_, replica_end) in enumerate(ends)
        ]
        router = ReplicaSet(primary, replicas)
        try:
            document, token = router.add_document(TEXTS[1], "doc1")
            assert document.doc_id == "doc1"
            assert token is not None
            # read-your-writes: whoever answers must already have doc1
            result = router.query(ENTITY_QUERY, read_your_writes=token)
            assert as_rows(result) == as_rows(primary.query(ENTITY_QUERY))
            for replica in replicas:
                assert replica.wait_caught_up(token)
            # once caught up, replicas take the (tokenless) read traffic
            for _ in range(4):
                router.query(ENTITY_QUERY)
            assert sum(replica_reads(router).values()) >= 2

            removed, remove_token = router.remove_document("doc0")
            assert removed.doc_id == "doc0"
            assert remove_token > token
            assert as_rows(
                router.query(ENTITY_QUERY, read_your_writes=remove_token)
            ) == as_rows(primary.query(ENTITY_QUERY))
            assert router.metrics is primary.metrics  # counters join the primary's
            state = router.routing_stats()
            assert len(state["replicas"]) == 2
            assert state["primary_position"] == str(primary.wal_position())
        finally:
            for replica in replicas:
                replica.close()
            shipper.close()
