"""Shipping + replica acceptance: a follower restored from snapshot plus
shipped WAL tail returns tuple-identical results to the primary, with zero
re-annotation, across checkpoint rotations and follower restarts."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.persistence import CheckpointPolicy, WalPosition
from repro.replication import (
    InProcessTransport,
    LogShipper,
    ReplicaService,
    connect_tcp,
)
from repro.service import KokoService

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


class ExplodingPipeline:
    """Proves the replica's apply path never re-runs NLP annotation."""

    def annotate(self, *args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("replicas must never re-annotate")


def attach_replica(shipper, **kwargs) -> ReplicaService:
    primary_end, replica_end = InProcessTransport.pair()
    shipper.serve(primary_end)
    kwargs.setdefault("pipeline", ExplodingPipeline())
    return ReplicaService(replica_end, **kwargs)


def assert_identical(primary, replica):
    assert replica.wait_caught_up(primary.wal_position()), (
        replica.replication_stats()
    )
    assert len(replica) == len(primary)
    assert sorted(replica.document_ids()) == sorted(primary.document_ids())
    assert replica.generations == primary.generations
    for query in (ENTITY_QUERY, CITY_QUERY):
        assert as_rows(replica.query(query)) == as_rows(primary.query(query))


# ----------------------------------------------------------------------
# acceptance: tuple-identical at shards 1 and 4, zero re-annotation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 4])
def test_replica_is_tuple_identical_after_bootstrap_and_tail(tmp_path, shards):
    with KokoService(shards=shards, storage_dir=tmp_path / "svc") as primary:
        for index, text in enumerate(TEXTS[:3]):
            primary.add_document(text, f"doc{index}")
        primary.checkpoint()  # part of the state arrives via snapshot...
        primary.add_document(TEXTS[3], "doc3")  # ...and part via the tail
        primary.remove_document("doc0")

        shipper = LogShipper(primary)
        replica = attach_replica(shipper)
        try:
            assert_identical(primary, replica)
            assert replica.lag_bytes == 0
            # and the replica keeps converging as the primary keeps writing
            primary.add_document(TEXTS[4], "doc4")
            assert_identical(primary, replica)
        finally:
            replica.close()
            shipper.close()


def test_replica_rejects_writes(tmp_path):
    from repro.errors import ReplicationError

    with KokoService(shards=1, storage_dir=tmp_path / "svc") as primary:
        primary.add_document(TEXTS[0], "doc0")
        shipper = LogShipper(primary)
        replica = attach_replica(shipper)
        try:
            with pytest.raises(ReplicationError):
                replica.add_document("nope", "x")
            with pytest.raises(ReplicationError):
                replica.remove_document("doc0")
        finally:
            replica.close()
            shipper.close()


# ----------------------------------------------------------------------
# checkpoint rotation mid-tail: shipping must never lose records
# ----------------------------------------------------------------------
def test_replica_survives_checkpoint_rotations_mid_tail(tmp_path):
    with KokoService(
        shards=2,
        storage_dir=tmp_path / "svc",
        checkpoint_policy=CheckpointPolicy.disabled(),
    ) as primary:
        primary.add_document(TEXTS[0], "doc0")
        shipper = LogShipper(primary)
        replica = attach_replica(shipper)
        try:
            assert replica.wait_caught_up(primary.wal_position())
            # rotate repeatedly while the follower tails; every record must
            # arrive even though the segments it reads keep getting sealed
            for round_index, text in enumerate(TEXTS[1:5], start=1):
                primary.add_document(text, f"doc{round_index}")
                assert primary.checkpoint() is not None
            primary.remove_document("doc2")
            assert_identical(primary, replica)
            # the shipped-from segments were pinned, not pruned mid-read
            assert replica.records_applied == 6
        finally:
            replica.close()
            shipper.close()


def test_prune_waits_for_the_shipping_pin(tmp_path):
    """While a session is attached, checkpoints must retain the segments it
    still needs; once it detaches, the next checkpoint may collect them."""
    with KokoService(
        shards=1,
        storage_dir=tmp_path / "svc",
        checkpoint_policy=CheckpointPolicy.disabled(),
    ) as primary:
        shipper = LogShipper(primary)
        layout = primary._layout
        replica = attach_replica(shipper)
        try:
            primary.add_document(TEXTS[0], "doc0")
            assert replica.wait_caught_up(primary.wal_position())
            first_segment = min(layout.wal_segment_ids())
            session = shipper.sessions[0]
            pinned = session.pin()
            assert pinned is not None and pinned >= first_segment
        finally:
            replica.close()
            shipper.close()
        # the session is gone: pins released, pruning proceeds normally
        deadline = time.monotonic() + 5.0
        while shipper.sessions and time.monotonic() < deadline:
            time.sleep(0.01)
        primary.add_document(TEXTS[1], "doc1")
        primary.checkpoint()
        primary.add_document(TEXTS[2], "doc2")
        primary.checkpoint()
        assert min(layout.wal_segment_ids()) > first_segment


# ----------------------------------------------------------------------
# follower restart: fresh bootstrap catches up to the live end
# ----------------------------------------------------------------------
def test_follower_restart_catches_up_from_fresh_snapshot(tmp_path):
    with KokoService(shards=2, storage_dir=tmp_path / "svc") as primary:
        for index, text in enumerate(TEXTS[:2]):
            primary.add_document(text, f"doc{index}")
        shipper = LogShipper(primary)
        first = attach_replica(shipper)
        try:
            assert_identical(primary, first)
        finally:
            first.close()  # the follower "dies"

        # the primary keeps ingesting and checkpointing meanwhile
        for index, text in enumerate(TEXTS[2:5], start=2):
            primary.add_document(text, f"doc{index}")
        primary.checkpoint()

        second = attach_replica(shipper)  # restart = fresh bootstrap
        try:
            assert_identical(primary, second)
            # restart bootstrapped from the newer checkpoint, not the log
            # from genesis: far fewer records replayed than ever written
            assert second.records_applied <= 2
        finally:
            second.close()
            shipper.close()


def test_bootstrap_from_a_multi_segment_snapshot_with_tombstones(tmp_path):
    """The shipped snapshot is several segments per shard, some frames
    tombstoned: the follower holds exactly the primary's documents, in
    each shard's order, and answers identically."""
    with KokoService(
        shards=2, storage_dir=tmp_path / "svc", checkpoint_policy=CheckpointPolicy.disabled()
    ) as primary:
        for round_number, texts in enumerate((TEXTS, TEXTS[:2], TEXTS[2:3])):
            for index, text in enumerate(texts):
                primary.add_document(text, f"r{round_number}-{index}")
            primary.checkpoint()
        for doc_id in ("r0-0", "r0-3", "r1-1"):
            primary.remove_document(doc_id)
        sealed = primary.checkpoint()
        manifest = json.loads(
            (tmp_path / "svc" / "snapshots" / f"ckpt-{sealed:010d}" / "manifest.json").read_text()
        )
        segments = [s for shard in manifest["shards"] for s in shard["segments"]]
        assert max(len(shard["segments"]) for shard in manifest["shards"]) > 1
        assert sum(len(s["tombstones"]) for s in segments) == 3

        shipper = LogShipper(primary)
        replica = attach_replica(shipper)
        try:
            assert_identical(primary, replica)
            assert replica.records_applied == 0  # everything came in the snapshot
            assert [[d.doc_id for d in c.documents] for c in replica.service.corpora] == [
                [d.doc_id for d in c.documents] for c in primary.corpora
            ]
        finally:
            replica.close()
            shipper.close()


def test_reconnect_resumes_without_rebootstrap(tmp_path):
    with KokoService(shards=1, storage_dir=tmp_path / "svc") as primary:
        primary.add_document(TEXTS[0], "doc0")
        shipper = LogShipper(primary)
        primary_end, replica_end = InProcessTransport.pair()
        shipper.serve(primary_end)
        replica = ReplicaService(replica_end, pipeline=ExplodingPipeline())
        try:
            assert replica.wait_caught_up(primary.wal_position())
            replica_end.close()  # connection drops
            deadline = time.monotonic() + 5.0
            while replica.connected and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not replica.connected

            primary.add_document(TEXTS[1], "doc1")  # written while detached
            new_primary_end, new_replica_end = InProcessTransport.pair()
            shipper.serve(new_primary_end)
            resumed = replica.reconnect(new_replica_end)
            assert resumed  # position still on disk: stream continued
            assert_identical(primary, replica)
        finally:
            replica.close()
            shipper.close()


# ----------------------------------------------------------------------
# TCP transport end to end
# ----------------------------------------------------------------------
def test_tcp_shipping_end_to_end(tmp_path, listen_ready):
    with KokoService(shards=2, storage_dir=tmp_path / "svc") as primary:
        for index, text in enumerate(TEXTS[:3]):
            primary.add_document(text, f"doc{index}")
        shipper = LogShipper(primary)
        host, port = listen_ready(*shipper.listen())
        replica = ReplicaService(
            connect_tcp(host, port), pipeline=ExplodingPipeline(), name="tcp-replica"
        )
        try:
            assert_identical(primary, replica)
            primary.add_document(TEXTS[3], "doc3")
            assert_identical(primary, replica)
            sessions = shipper.stats()["sessions"]
            assert len(sessions) == 1 and sessions[0]["peer"].startswith("tcp/")
        finally:
            replica.close()
            shipper.close()


def test_idle_caught_up_follower_never_goes_stalled(tmp_path):
    """An idle-but-healthy follower keeps acking off heartbeats, so its WAL
    retention pin survives ingest-quiet periods longer than stall_timeout."""
    with KokoService(shards=1, storage_dir=tmp_path / "svc") as primary:
        primary.add_document(TEXTS[0], "doc0")
        shipper = LogShipper(primary, heartbeat_interval=0.05, stall_timeout=0.4)
        replica = attach_replica(shipper)
        try:
            assert replica.wait_caught_up(primary.wal_position())
            time.sleep(0.8)  # two stall_timeouts of pure silence
            session = shipper.sessions[0]
            assert not session.stalled
            assert session.pin() is not None
        finally:
            replica.close()
            shipper.close()


def test_token_taken_right_after_a_checkpoint_is_reached(tmp_path):
    """A checkpoint rotates the log, so the primary's position becomes the
    start of an empty segment no shipped record ends at.  The heartbeat
    carries the shipper's send cursor, which lets a caught-up follower
    reach that token without waiting for the next write — and the router
    then serves the read-your-writes query from the replica."""
    from repro.replication import ReplicaSet

    with KokoService(
        shards=2,
        storage_dir=tmp_path / "svc",
        checkpoint_policy=CheckpointPolicy.disabled(),
    ) as primary:
        shipper = LogShipper(primary, heartbeat_interval=0.1)
        replica = attach_replica(shipper, name="r0")
        try:
            primary.add_document(TEXTS[0], "doc0")
            assert primary.checkpoint() is not None
            token = primary.wal_position()
            assert token.offset == 0  # nothing logged since the rotation
            assert replica.wait_caught_up(token, timeout=2.0), (
                replica.replication_stats()
            )
            router = ReplicaSet(primary, [replica])
            result = router.query(ENTITY_QUERY, read_your_writes=token)
            assert as_rows(result) == as_rows(primary.query(ENTITY_QUERY))
            assert router.stats.snapshot()["replica_queries"] == {"r0": 1}
            assert router.stats.primary_queries == 0
            # the raised position is a real one: later writes still apply
            primary.add_document(TEXTS[1], "doc1")
            assert_identical(primary, replica)
        finally:
            replica.close()
            shipper.close()


def test_dead_applier_closes_its_session(tmp_path):
    """When the applier thread dies, the primary-side session must end too
    (nothing keeps shipping into a queue nobody drains)."""
    with KokoService(shards=1, storage_dir=tmp_path / "svc") as primary:
        primary.add_document(TEXTS[0], "doc0")
        shipper = LogShipper(primary)
        replica = attach_replica(shipper)
        try:
            assert replica.wait_caught_up(primary.wal_position())
            # make the next apply explode: applier dies on this poisoned state
            replica.service.close()
            primary.add_document(TEXTS[1], "doc1")
            deadline = time.monotonic() + 5.0
            while (replica.connected or shipper.sessions) and (
                time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert not replica.connected
            assert shipper.sessions == []  # session ended with the applier
        finally:
            replica.close()
            shipper.close()


def test_shipper_requires_a_durable_primary():
    from repro.errors import ReplicationError

    with KokoService(shards=1) as memory_only:
        with pytest.raises(ReplicationError, match="durable"):
            LogShipper(memory_only)


# ----------------------------------------------------------------------
# shipping-port authentication
# ----------------------------------------------------------------------
def test_tcp_listener_with_auth_token_serves_matching_followers(
    tmp_path, listen_ready
):
    with KokoService(shards=1, storage_dir=tmp_path / "svc") as primary:
        primary.add_document(TEXTS[0], "doc0")
        shipper = LogShipper(primary)
        host, port = listen_ready(*shipper.listen(auth_token="s3cret"))
        replica = ReplicaService(
            connect_tcp(host, port, auth_token="s3cret"),
            pipeline=ExplodingPipeline(),
        )
        try:
            assert_identical(primary, replica)
        finally:
            replica.close()
            shipper.close()


def test_tcp_listener_rejects_wrong_auth_token(tmp_path, listen_ready):
    from repro.errors import ReplicationError

    with KokoService(shards=1, storage_dir=tmp_path / "svc") as primary:
        primary.add_document(TEXTS[0], "doc0")
        shipper = LogShipper(primary)
        host, port = listen_ready(*shipper.listen(auth_token="s3cret"))
        try:
            with pytest.raises(ReplicationError):
                ReplicaService(
                    connect_tcp(host, port, auth_token="wrong"),
                    pipeline=ExplodingPipeline(),
                )
            # the listener is still healthy for properly keyed followers
            replica = ReplicaService(
                connect_tcp(host, port, auth_token="s3cret"),
                pipeline=ExplodingPipeline(),
            )
            try:
                assert_identical(primary, replica)
            finally:
                replica.close()
        finally:
            shipper.close()


def test_non_loopback_listen_requires_auth_token_or_explicit_opt_out(tmp_path):
    from repro.errors import ReplicationError

    with KokoService(shards=1, storage_dir=tmp_path / "svc") as primary:
        shipper = LogShipper(primary)
        try:
            with pytest.raises(ReplicationError, match="unauthenticated"):
                shipper.listen("0.0.0.0")
            # the explicit opt-out still binds
            host, port = shipper.listen("0.0.0.0", allow_unauthenticated=True)
            assert port > 0
        finally:
            shipper.close()


# ----------------------------------------------------------------------
# bootstrap vs stall_timeout: the retention pin must survive a slow ship
# ----------------------------------------------------------------------
class _SlowBootstrapTransport:
    """Primary-side transport stub whose snapshot send blocks until released
    (a follower on a slow link, mid-bootstrap)."""

    def __init__(self):
        import queue

        self.release = threading.Event()
        self.name = "slow-bootstrap"
        self._inbox = queue.Queue()
        self._inbox.put(("subscribe", {"resume": None}))

    def recv(self, timeout=None):
        import queue

        try:
            return self._inbox.get(timeout=timeout)
        except queue.Empty:
            return None

    def send(self, message):
        if message[0] == "snapshot":
            self.release.wait()

    def close(self):
        self.release.set()


def test_bootstrap_longer_than_stall_timeout_keeps_the_pin(tmp_path):
    """A session mid-snapshot has no acks yet by design; it must keep its
    WAL retention pin past stall_timeout (regression: the pin dropped and a
    concurrent checkpoint could prune the fresh follower's tail)."""
    with KokoService(shards=1, storage_dir=tmp_path / "svc") as primary:
        primary.add_document(TEXTS[0], "doc0")
        shipper = LogShipper(primary, stall_timeout=0.05)
        transport = _SlowBootstrapTransport()
        session = shipper.serve(transport)
        try:
            deadline = time.monotonic() + 5.0
            while session.position is None and time.monotonic() < deadline:
                time.sleep(0.01)  # wait for bootstrap to claim its position
            time.sleep(0.2)  # several stall_timeouts into the snapshot ship
            assert not session.stalled
            assert session.pin() is not None
        finally:
            session.close()
            shipper.close()


class _SilentResumeTransport:
    """Subscribes with a valid resume position, then never acks."""

    def __init__(self, resume):
        self.name = "silent-resume"
        self._pending = [("subscribe", {"resume": resume})]

    def recv(self, timeout=None):
        if self._pending:
            return self._pending.pop()
        if timeout:
            time.sleep(min(timeout, 0.02))
        return None

    def send(self, message):
        pass

    def close(self):
        pass


def test_resumed_session_uses_the_ordinary_stall_clock(tmp_path):
    """A granted resume ships no snapshot: the follower has live state and
    can ack immediately, so it gets stall_timeout — not the much longer
    bootstrap grace (a silently dead resumed follower must not pin the
    log for bootstrap_timeout)."""
    with KokoService(shards=1, storage_dir=tmp_path / "svc") as primary:
        primary.add_document(TEXTS[0], "doc0")
        shipper = LogShipper(primary, stall_timeout=0.05, bootstrap_timeout=600.0)
        end = primary.wal_position()
        session = shipper.serve(
            _SilentResumeTransport(WalPosition(end.segment_id, 0))
        )
        try:
            deadline = time.monotonic() + 5.0
            while not session.resumed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert session.resumed
            time.sleep(0.2)  # past stall_timeout, nowhere near bootstrap_timeout
            assert session.stalled
            assert session.pin() is None
        finally:
            session.close()
            shipper.close()


def test_wait_caught_up_false_when_primary_end_never_learned():
    """A replica that disconnected before the first batch/heartbeat has no
    target to be caught up to: it must not report itself in sync."""
    replica = ReplicaService.__new__(ReplicaService)  # state only, no handshake
    replica._lock = threading.Lock()
    replica._applied = None
    replica._primary_end = None
    replica._connected = False
    assert replica.wait_caught_up(timeout=0.05) is False


def test_bootstrap_pin_expires_after_bootstrap_timeout(tmp_path):
    """The exemption is bounded: a follower wedged inside bootstrap counts
    as stalled after bootstrap_timeout, so it cannot pin the log forever."""
    with KokoService(shards=1, storage_dir=tmp_path / "svc") as primary:
        primary.add_document(TEXTS[0], "doc0")
        shipper = LogShipper(primary, stall_timeout=60.0, bootstrap_timeout=0.05)
        transport = _SlowBootstrapTransport()
        session = shipper.serve(transport)
        try:
            deadline = time.monotonic() + 5.0
            while session.position is None and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)
            assert session.stalled
            assert session.pin() is None
        finally:
            session.close()
            shipper.close()


# ----------------------------------------------------------------------
# handshake failures must not leak the transport
# ----------------------------------------------------------------------
def test_unexpected_handshake_mode_raises_and_closes_the_transport():
    from repro.errors import ReplicationError
    from repro.persistence import WalPosition

    class ResumeOnFreshTransport:
        """A (buggy/hostile) primary answering a fresh subscribe with a
        resume instead of a snapshot bootstrap."""

        closed = False

        def send(self, message):
            pass

        def recv(self, timeout=None):
            return ("hello", {"mode": "resume", "start": WalPosition(1, 0)})

        def close(self):
            self.closed = True

    transport = ResumeOnFreshTransport()
    with pytest.raises(ReplicationError, match="snapshot"):
        ReplicaService(transport)
    assert transport.closed
