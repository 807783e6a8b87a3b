"""Transport contract: ordering, timeouts, close semantics, TCP framing."""

from __future__ import annotations

import threading

import pytest

from repro.replication import InProcessTransport, TcpTransport, TransportClosed, connect_tcp


def test_in_process_pair_delivers_in_order():
    a, b = InProcessTransport.pair()
    for i in range(5):
        a.send(("msg", i))
    assert [b.recv(timeout=1.0)[1] for _ in range(5)] == list(range(5))
    b.send(("reply", "ok"))
    assert a.recv(timeout=1.0) == ("reply", "ok")


def test_in_process_recv_timeout_returns_none():
    a, b = InProcessTransport.pair()
    assert b.recv(timeout=0.01) is None
    assert a.recv(timeout=0.0) is None


def test_in_process_close_wakes_both_ends():
    a, b = InProcessTransport.pair()
    a.send(("queued", 1))
    a.close()
    assert b.recv(timeout=1.0) == ("queued", 1)  # queued data still drains
    with pytest.raises(TransportClosed):
        b.recv(timeout=1.0)
    with pytest.raises(TransportClosed):
        a.send(("late", 2))


def test_in_process_close_wakes_a_blocked_receiver():
    a, b = InProcessTransport.pair()
    outcome = []

    def blocked_recv():
        try:
            b.recv(timeout=30.0)
        except TransportClosed:
            outcome.append("closed")

    thread = threading.Thread(target=blocked_recv)
    thread.start()
    b.close()
    thread.join(timeout=5.0)
    assert outcome == ["closed"]


def tcp_pair():
    import socket

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()[:2]
    client = connect_tcp(host, port)
    server_sock, _ = listener.accept()
    listener.close()
    return TcpTransport(server_sock), client


def test_tcp_roundtrip_and_large_payload():
    server, client = tcp_pair()
    try:
        client.send(("hello", {"resume": None}))
        assert server.recv(timeout=5.0) == ("hello", {"resume": None})
        blob = b"x" * (3 * 1024 * 1024)  # bigger than one socket buffer
        server.send(("snapshot", blob))
        kind, received = client.recv(timeout=10.0)
        assert kind == "snapshot" and received == blob
    finally:
        server.close()
        client.close()


def test_tcp_zero_timeout_polls_without_breaking_the_stream():
    server, client = tcp_pair()
    try:
        assert server.recv(timeout=0.0) is None  # must not raise / close
        client.send(("still", "alive"))
        assert server.recv(timeout=5.0) == ("still", "alive")
    finally:
        server.close()
        client.close()


def test_tcp_peer_close_raises_transport_closed():
    server, client = tcp_pair()
    client.close()
    with pytest.raises(TransportClosed):
        while True:  # may need one recv to observe EOF
            server.recv(timeout=5.0)
    server.close()


def test_tcp_recv_timeout_never_leaks_into_send():
    """A timed-out recv must not leave a timeout on the socket: the next
    large send on the same transport has to survive the kernel buffer
    filling up while the peer reads slowly (regression: a leaked
    sub-millisecond timeout made sendall raise mid-frame)."""
    server, client = tcp_pair()
    try:
        assert server.recv(timeout=0.0) is None  # the old code leaked here
        assert server._sock.gettimeout() is None

        blob = b"x" * (16 * 1024 * 1024)  # far beyond any socket buffer
        received = []

        def slow_reader():
            import time

            time.sleep(0.3)  # let the sender hit a full buffer first
            received.append(client.recv(timeout=30.0))

        reader = threading.Thread(target=slow_reader)
        reader.start()
        server.send(("records", blob))  # must block, not raise
        reader.join(timeout=30.0)
        assert received == [("records", blob)]
    finally:
        server.close()
        client.close()


def _auth_socket_pair():
    import socket

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()[:2]
    dialer = socket.create_connection((host, port), timeout=5.0)
    dialer.settimeout(5.0)
    accepted, _ = listener.accept()
    accepted.settimeout(5.0)
    listener.close()
    return dialer, accepted


def test_auth_challenge_accepts_matching_token_and_rejects_others():
    from repro.net import handshake

    for client_token, expected in (("s3cret", True), ("wrong", False)):
        dialer, accepted = _auth_socket_pair()
        outcomes = []

        def dial(dialer=dialer, token=client_token):
            try:
                authed = handshake(dialer, token, listener=False)
                outcomes.append("authed" if authed else "rejected")
            except TransportClosed:
                outcomes.append("rejected")

        try:
            answered = threading.Thread(target=dial)
            answered.start()
            assert handshake(accepted, "s3cret", listener=True) is expected
        finally:
            accepted.close()  # a real listener hangs up on a mismatch
            answered.join(timeout=5.0)
            dialer.close()
        assert outcomes == (["authed"] if expected else ["rejected"])


def test_auth_is_mutual_dialer_rejects_a_listener_without_the_token():
    """A replica misdirected at the wrong endpoint must not proceed to
    unpickling frames: the listener has to prove token knowledge too."""
    import os
    import socket

    listener = socket.create_server(("127.0.0.1", 0))

    def impostor_listener():
        # looks like a challenge, but the 'listener' has no token: its
        # proof can only be garbage
        accepted, _ = listener.accept()
        with accepted:
            accepted.sendall(os.urandom(16))
            accepted.recv(64)
            accepted.sendall(os.urandom(32))

    impostor = threading.Thread(target=impostor_listener)
    impostor.start()
    try:
        with pytest.raises(TransportClosed, match="listener failed"):
            connect_tcp(*listener.getsockname()[:2], auth_token="s3cret")
    finally:
        impostor.join(timeout=5.0)
        listener.close()
