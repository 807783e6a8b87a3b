"""Pluggable message transports for log shipping.

Replication messages are small Python tuples (plus snapshot byte blobs);
a transport moves them between a primary-side shipper session and one
follower, in order, full-duplex:

* :class:`InProcessTransport` — a pair of queues, for replicas living in
  the same process (tests, benchmarks, embedded read scaling);
* :class:`TcpTransport` — length-prefixed pickle frames over a TCP
  socket, for replicas in other processes or on other hosts.

Both ends expose the same three calls: ``send(message)``,
``recv(timeout) -> message | None`` (``None`` = nothing arrived in time)
and ``close()``.  A closed or broken channel raises
:class:`TransportClosed` from either call, which the shipper and replica
treat as the end of the session.

**Trust model**: frames carry pickles — exactly what the WAL and
snapshots already store on disk — so the TCP transport is for links
inside one trust domain (the same place the primary's disk lives).  A
non-loopback listener requires a shared ``auth_token`` (see
:meth:`LogShipper.listen <repro.replication.shipper.LogShipper.listen>`):
both ends prove knowledge of the token in a mutual HMAC
challenge-response over raw bytes *before* either unpickles anything
from the other.  The token gates
accidental exposure, not a hostile network — the frames themselves are
neither encrypted nor signed, so still keep shipping ports inside one
trust domain.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pickle
import queue
import select
import socket
import struct
import threading

from ..errors import ReplicationError

__all__ = [
    "InProcessTransport",
    "TcpTransport",
    "TransportClosed",
    "answer_auth_challenge",
    "connect_tcp",
    "issue_auth_challenge",
]

_LENGTH = struct.Struct("<Q")

#: sentinel a closing end pushes so a blocked reader wakes immediately
_CLOSED = object()


class TransportClosed(ReplicationError):
    """The peer closed the channel (or the channel broke)."""


class InProcessTransport:
    """One end of an in-memory duplex message pipe.

    Build both ends with :meth:`pair`; messages put into one end come out
    of the other in order.  ``close()`` on either end wakes and closes
    both.
    """

    def __init__(
        self, outbox: "queue.Queue", inbox: "queue.Queue", name: str = "in-process"
    ) -> None:
        self._outbox = outbox
        self._inbox = inbox
        self._closed = threading.Event()
        self.name = name

    @classmethod
    def pair(cls) -> tuple["InProcessTransport", "InProcessTransport"]:
        """A connected ``(primary_end, replica_end)`` transport pair."""
        a_to_b: queue.Queue = queue.Queue()
        b_to_a: queue.Queue = queue.Queue()
        primary = cls(a_to_b, b_to_a, name="in-process/primary")
        replica = cls(b_to_a, a_to_b, name="in-process/replica")
        # closing either end must wake the other's blocked recv
        primary._peer = replica  # type: ignore[attr-defined]
        replica._peer = primary  # type: ignore[attr-defined]
        return primary, replica

    def send(self, message) -> None:
        """Enqueue one message for the peer."""
        if self._closed.is_set():
            raise TransportClosed(f"{self.name} transport is closed")
        self._outbox.put(message)

    def recv(self, timeout: float | None = None):
        """The next message, or ``None`` after *timeout* seconds of silence."""
        if self._closed.is_set() and self._inbox.empty():
            raise TransportClosed(f"{self.name} transport is closed")
        try:
            message = self._inbox.get(timeout=timeout)
        except queue.Empty:
            return None
        if message is _CLOSED:
            self._closed.set()
            raise TransportClosed(f"{self.name} transport is closed")
        return message

    def close(self) -> None:
        """Close both ends (idempotent); blocked receivers wake with
        :class:`TransportClosed`."""
        if self._closed.is_set():
            return
        self._closed.set()
        peer = getattr(self, "_peer", None)
        if peer is not None:
            peer._closed.set()
        # wake both directions
        self._outbox.put(_CLOSED)
        self._inbox.put(_CLOSED)


class TcpTransport:
    """Length-prefixed pickled messages over one TCP socket.

    ``send`` is serialised by a mutex (frames never interleave); ``recv``
    is meant for a single consumer thread, matching how the shipper
    session and the replica applier use it.
    """

    def __init__(self, sock: socket.socket, name: str | None = None) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = False
        # the socket stays permanently blocking: recv timeouts are done via
        # select(), so they can never leak into a concurrent sendall() —
        # a socket-level timeout would govern both directions
        sock.settimeout(None)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - e.g. unix sockets in reuse
            pass
        self.name = name or f"tcp/{sock.fileno()}"

    def send(self, message) -> None:
        """Frame and send one message; raises :class:`TransportClosed` on a
        broken pipe."""
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        with self._send_lock:
            if self._closed:
                raise TransportClosed(f"{self.name} transport is closed")
            try:
                self._sock.sendall(_LENGTH.pack(len(payload)) + payload)
            except OSError as exc:
                self._closed = True
                raise TransportClosed(f"{self.name}: send failed: {exc}") from exc

    def _read_exact(self, count: int) -> bytes:
        chunks: list[bytes] = []
        remaining = count
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except InterruptedError:  # pragma: no cover - signal race
                continue
            except OSError as exc:
                raise TransportClosed(f"{self.name}: recv failed: {exc}") from exc
            if not chunk:
                raise TransportClosed(f"{self.name}: peer closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self, timeout: float | None = None):
        """The next message, or ``None`` after *timeout* seconds of silence."""
        payload = self.recv_payload(timeout)
        return None if payload is None else pickle.loads(payload)

    def recv_payload(self, timeout: float | None = None) -> bytes | None:
        """The next frame's payload, still encoded (for a caller with its
        own decoder), or ``None`` after *timeout* seconds of silence."""
        with self._recv_lock:
            if self._closed:
                raise TransportClosed(f"{self.name} transport is closed")
            if timeout is not None:
                # wait for the first byte with select(): the socket itself
                # stays blocking, so once a frame starts we read it whole
                try:
                    ready, _, _ = select.select(
                        [self._sock], [], [], max(timeout, 0.0)
                    )
                except (OSError, ValueError) as exc:
                    self._closed = True
                    raise TransportClosed(
                        f"{self.name}: recv failed: {exc}"
                    ) from exc
                if not ready:
                    return None
            try:
                header = self._read_exact(_LENGTH.size)
                payload = self._read_exact(_LENGTH.unpack(header)[0])
            except TransportClosed:
                self._closed = True
                raise
        return payload

    def close(self) -> None:
        """Shut the socket down (idempotent); the peer's recv raises."""
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best-effort
            pass


# -- shared-secret handshake -------------------------------------------
#
# A *mutual* challenge-response over raw bytes, before either side
# unpickles anything from the other:
#
#   listener -> dialer : server_nonce
#   dialer  -> listener: client_nonce + HMAC(token, "client" + server_nonce)
#   listener -> dialer : HMAC(token, "server" + client_nonce)
#
# Each direction uses its own domain prefix so an answer can never be
# reflected back as a proof; comparisons are constant-time.  The dialer
# verifying the listener matters just as much as the reverse: a replica
# misdirected at the wrong endpoint must not unpickle frames from it.

_AUTH_NONCE_LEN = 16
_AUTH_DIGEST_LEN = hashlib.sha256().digest_size


def _token_bytes(token: bytes | str) -> bytes:
    return token.encode("utf-8") if isinstance(token, str) else bytes(token)


def _auth_digest(token: bytes | str, direction: bytes, nonce: bytes) -> bytes:
    return hmac.new(_token_bytes(token), direction + nonce, hashlib.sha256).digest()


def _send_raw(sock: socket.socket, payload: bytes) -> None:
    try:
        sock.sendall(payload)
    except OSError as exc:
        raise TransportClosed(f"auth handshake failed: {exc}") from exc


def _recv_raw_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly *count* raw bytes (pre-framing, used only for auth)."""
    chunks: list[bytes] = []
    while count:
        try:
            chunk = sock.recv(count)
        except OSError as exc:
            raise TransportClosed(f"auth handshake failed: {exc}") from exc
        if not chunk:
            raise TransportClosed("peer closed during auth handshake")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def answer_auth_challenge(sock: socket.socket, token: bytes | str) -> None:
    """Dialer side of the mutual handshake; raises :class:`TransportClosed`
    when the listener rejects us or cannot prove it knows the token."""
    server_nonce = _recv_raw_exact(sock, _AUTH_NONCE_LEN)
    client_nonce = os.urandom(_AUTH_NONCE_LEN)
    _send_raw(
        sock, client_nonce + _auth_digest(token, b"client", server_nonce)
    )
    proof = _recv_raw_exact(sock, _AUTH_DIGEST_LEN)
    if not hmac.compare_digest(
        proof, _auth_digest(token, b"server", client_nonce)
    ):
        raise TransportClosed(
            "listener failed the auth handshake: wrong or missing token "
            "(is this really a shipping port?)"
        )


def issue_auth_challenge(sock: socket.socket, token: bytes | str) -> bool:
    """Listener side of the mutual handshake; True when the dialer's
    answer matches (the listener's own proof is then sent back)."""
    server_nonce = os.urandom(_AUTH_NONCE_LEN)
    _send_raw(sock, server_nonce)
    answer = _recv_raw_exact(sock, _AUTH_NONCE_LEN + _AUTH_DIGEST_LEN)
    client_nonce, digest = answer[:_AUTH_NONCE_LEN], answer[_AUTH_NONCE_LEN:]
    if not hmac.compare_digest(
        digest, _auth_digest(token, b"client", server_nonce)
    ):
        return False
    _send_raw(sock, _auth_digest(token, b"server", client_nonce))
    return True


def connect_tcp(
    host: str,
    port: int,
    timeout: float = 10.0,
    auth_token: bytes | str | None = None,
) -> TcpTransport:
    """Dial a primary's shipping listener and return the replica-side
    transport.

    Pass the listener's shared ``auth_token`` when it was started with
    one (mandatory for non-loopback listeners); the mutual handshake runs
    — and the listener must prove it knows the token too — before any
    replication frame is exchanged.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    if auth_token is not None:
        try:
            # the connect timeout still governs the socket here, so a
            # listener that never answers cannot hang the dial forever
            answer_auth_challenge(sock, auth_token)
        except TransportClosed:
            sock.close()
            raise
    return TcpTransport(sock, name=f"tcp/{host}:{port}")
