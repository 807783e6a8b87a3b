"""Fault-injection sweep over both network listeners.

Four hostile connection shapes — mid-frame disconnect, slow-loris
partial header, oversized/garbage frames, and an aborted auth handshake —
are thrown at the RPC server AND the replication shipping port.  The
invariants: the faulty peer is dropped cleanly (typed transport-error
accounting on the RPC side), and the listener keeps serving well-behaved
peers afterwards.
"""

from __future__ import annotations

import socket
import struct
import time

import pytest

from repro import net
from repro.replication import LogShipper, ReplicaService, connect_tcp
from repro.rpc import RpcClient, RpcServer
from repro.rpc import server as server_module
from repro.service import KokoService

TEXT = "I ate a chocolate ice cream, which was delicious, and also ate a pie."
ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)


class ExplodingPipeline:
    """Replicas must never re-annotate."""

    def annotate(self, *args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("replicas must never re-annotate")


def raw_connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=5.0)
    sock.settimeout(5.0)
    return sock


def read_until_closed(sock: socket.socket, timeout: float = 5.0) -> bytes:
    """Drain a socket until the peer closes it; returns whatever arrived."""
    sock.settimeout(timeout)
    chunks = []
    try:
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
    except (TimeoutError, OSError):
        pass
    return b"".join(chunks)


def transport_error_count(server: RpcServer, kind: str) -> float:
    return server.node.metrics.counter(
        "koko_rpc_transport_errors_total",
        "RPC connections dropped by fault kind",
        ("kind",),
    ).labels(kind).value


def wait_for_count(read, target: float, timeout: float = 5.0) -> float:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = read()
        if value >= target:
            return value
        time.sleep(0.01)
    return read()


# ----------------------------------------------------------------------
# the RPC server
# ----------------------------------------------------------------------
@pytest.fixture
def rpc_setup(listen_ready, monkeypatch):
    """A served single-shard service with aggressive transport bounds."""
    monkeypatch.setattr(net, "MAX_FRAME_BYTES", 1 << 20)
    monkeypatch.setattr(server_module, "IDLE_SECONDS", 0.5)
    with KokoService(shards=1) as service:
        service.add_document(TEXT, "doc0")
        with RpcServer(service) as server:
            host, port = listen_ready(*server.address)
            yield server, host, port


def assert_still_serving(host: str, port: int) -> None:
    """A fresh, well-behaved client gets real answers after the fault."""
    client = RpcClient(host, port, client_id="control")
    try:
        result = client.query(ENTITY_QUERY)
        assert len(list(result)) > 0
    finally:
        client.close()


def test_rpc_mid_frame_disconnect_drops_only_that_peer(rpc_setup):
    server, host, port = rpc_setup
    before = transport_error_count(server, "bad_frame")
    sock = raw_connect(host, port)
    sock.sendall(struct.pack("<Q", 4096) + b"x" * 100)  # promise 4096, send 100
    sock.close()
    assert wait_for_count(
        lambda: transport_error_count(server, "bad_frame"), before + 1
    ) >= before + 1
    assert_still_serving(host, port)


def test_rpc_slow_loris_partial_header_is_cut_off(rpc_setup):
    server, host, port = rpc_setup
    before = transport_error_count(server, "idle_timeout")
    sock = raw_connect(host, port)
    sock.sendall(b"\x10\x00\x00")  # 3 of 8 header bytes, then silence
    # the 0.5s idle timeout cuts the connection without our cooperation
    assert read_until_closed(sock) == b""
    sock.close()
    assert wait_for_count(
        lambda: transport_error_count(server, "idle_timeout"), before + 1
    ) >= before + 1
    assert_still_serving(host, port)


def test_rpc_oversized_frame_is_rejected_before_allocation(rpc_setup):
    server, host, port = rpc_setup
    before = transport_error_count(server, "oversized_frame")
    sock = raw_connect(host, port)
    sock.sendall(struct.pack("<Q", 1 << 40))  # a terabyte, allegedly
    assert read_until_closed(sock) == b""  # dropped, nothing served
    sock.close()
    assert wait_for_count(
        lambda: transport_error_count(server, "oversized_frame"), before + 1
    ) >= before + 1
    assert_still_serving(host, port)


def test_rpc_garbage_frame_is_dropped_not_unpickled_into_a_crash(rpc_setup):
    server, host, port = rpc_setup
    before = transport_error_count(server, "garbage_frame")
    payload = b"\x93NUMPY-NOT-PICKLE\x00\xff" * 3
    sock = raw_connect(host, port)
    sock.sendall(struct.pack("<Q", len(payload)) + payload)
    assert read_until_closed(sock) == b""
    sock.close()
    assert wait_for_count(
        lambda: transport_error_count(server, "garbage_frame"), before + 1
    ) >= before + 1
    assert_still_serving(host, port)


def test_rpc_auth_handshake_abort_counts_and_serves_on(listen_ready, monkeypatch):
    monkeypatch.setattr(server_module, "HANDSHAKE_SECONDS", 0.5)
    with KokoService(shards=1) as service:
        service.add_document(TEXT, "doc0")
        with RpcServer(service, auth_token=b"secret") as server:
            host, port = listen_ready(*server.address)

            # abort 1: connect, read the server nonce, hang up silently
            sock = raw_connect(host, port)
            nonce = sock.recv(16)
            assert len(nonce) == 16
            sock.close()

            # abort 2: answer the challenge with garbage of the right size
            sock = raw_connect(host, port)
            sock.recv(16)
            sock.sendall(b"\x00" * (16 + 32))
            assert read_until_closed(sock) == b""
            sock.close()

            # abort 3: read the nonce, then stall: the handshake window cuts it
            sock = raw_connect(host, port)
            sock.recv(16)
            started = time.monotonic()
            assert read_until_closed(sock) == b""
            assert time.monotonic() - started < 3.0
            sock.close()

            assert wait_for_count(
                lambda: transport_error_count(server, "auth_failure"), 3
            ) >= 3
            # a properly keyed client is still served
            client = RpcClient(host, port, auth_token=b"secret")
            try:
                assert len(list(client.query(ENTITY_QUERY))) > 0
            finally:
                client.close()


# ----------------------------------------------------------------------
# the replication shipping port (LogShipper.listen)
# ----------------------------------------------------------------------
@pytest.fixture
def shipping_setup(tmp_path, listen_ready):
    """A primary with a listening shipper; no replica attached yet."""
    with KokoService(shards=1, storage_dir=tmp_path / "svc") as primary:
        primary.add_document(TEXT, "doc0")
        shipper = LogShipper(primary)
        host, port = listen_ready(*shipper.listen())
        try:
            yield primary, shipper, host, port
        finally:
            shipper.close()


def assert_shipping_still_works(primary, host, port):
    replica = ReplicaService(
        connect_tcp(host, port), pipeline=ExplodingPipeline(), name="survivor"
    )
    try:
        assert replica.wait_caught_up(primary.wal_position(), timeout=30)
        assert sorted(replica.document_ids()) == sorted(primary.document_ids())
    finally:
        replica.close()


def test_shipping_survives_mid_frame_disconnect(shipping_setup):
    primary, _shipper, host, port = shipping_setup
    sock = raw_connect(host, port)
    sock.sendall(struct.pack("<Q", 4096) + b"y" * 64)
    sock.close()
    assert_shipping_still_works(primary, host, port)


def test_shipping_survives_slow_loris_partial_header(shipping_setup):
    primary, _shipper, host, port = shipping_setup
    sock = raw_connect(host, port)
    sock.sendall(b"\x08\x00")  # hold a half-open header while others attach
    try:
        assert_shipping_still_works(primary, host, port)
    finally:
        sock.close()


def test_shipping_survives_garbage_frames(shipping_setup):
    primary, _shipper, host, port = shipping_setup
    payload = b"\xde\xad\xbe\xef not a pickle"
    sock = raw_connect(host, port)
    sock.sendall(struct.pack("<Q", len(payload)) + payload)
    sock.close()
    assert_shipping_still_works(primary, host, port)


def test_shipping_survives_auth_handshake_abort(tmp_path, listen_ready):
    with KokoService(shards=1, storage_dir=tmp_path / "svc") as primary:
        primary.add_document(TEXT, "doc0")
        shipper = LogShipper(primary)
        host, port = listen_ready(*shipper.listen(auth_token="s3cret"))
        try:
            sock = raw_connect(host, port)
            sock.recv(16)  # take the nonce ...
            sock.close()  # ... and abort instead of answering
            sock = raw_connect(host, port)
            sock.recv(16)
            sock.sendall(b"\xff" * (16 + 32))  # wrong digest
            assert read_until_closed(sock) == b""
            sock.close()
            # a correctly keyed follower still bootstraps and catches up
            replica = ReplicaService(
                connect_tcp(host, port, auth_token="s3cret"),
                pipeline=ExplodingPipeline(),
            )
            try:
                assert replica.wait_caught_up(primary.wal_position(), timeout=30)
            finally:
                replica.close()
        finally:
            shipper.close()
