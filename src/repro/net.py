"""The network layer: every decision a TCP peer of this system must share.

Two tiers speak TCP.  Replication ships the WAL from a
:class:`~repro.replication.shipper.LogShipper` listener to
:func:`connect_tcp` dialers over blocking sockets on threads; the RPC
tier serves queries and ingest from an asyncio
:class:`~repro.rpc.server.RpcServer` to a blocking
:class:`~repro.rpc.client.RpcClient` or an asyncio
:class:`~repro.rpc.client.AsyncRpcClient`.  Both speak one dialect,
written here once, with a blocking and an asyncio adapter for each part:

* **Frames** — a little-endian ``u64`` length (:data:`FRAME_HEADER`),
  then the payload.  The blocking adapter is :class:`TcpTransport`; the
  asyncio adapter is :func:`read_frame` (bounded by *max_frame_bytes*,
  default :data:`MAX_FRAME_BYTES`, and guarded by one :class:`IdleTimer`
  per connection) plus :func:`write_frame`.
* **The mutual HMAC handshake** — before the first frame, when the
  listener holds a token::

      listener -> dialer  : server_nonce
      dialer   -> listener: client_nonce + HMAC(token, "client" + server_nonce)
      listener -> dialer  : HMAC(token, "server" + client_nonce)

  Each direction has its own domain prefix, so an answer can never be
  reflected back as a proof, and digests are compared in constant time.
  The two roles are written once as step generators that only compute;
  :func:`handshake` and :func:`handshake_async` move their bytes.
* **The listen guard** — :func:`check_listen`: a non-loopback listener
  needs a token unless it opts out with ``allow_unauthenticated=True``.
* **Dialing** — :func:`connect_tcp`: connect, run the dialer's side of
  the handshake, close the socket on any failure.
* **Server lifecycle** — :class:`LoopServer`: one asyncio server on its
  own loop in a daemon thread; ``start()`` returns the bound address and
  ``close()`` cancels the connections still open.  The RPC and the
  telemetry server both run on it.

**Trust model.**  Replication frames and RPC requests and envelopes are
pickles — what the WAL and snapshots already store on disk — so every
port here belongs inside one trust domain, the one the primary's disk
lives in.  The token gates accidental exposure, not a hostile network:
both ends prove knowledge of it over raw bytes *before* either unpickles
anything from the other (a dialer misdirected at the wrong endpoint
refuses it as surely as a listener refuses a stranger), but frames are
neither encrypted nor signed.  Only the RPC result body is typed
(``columns-v1``, :mod:`repro.rpc.wire`).
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import ipaddress
import os
import pickle
import select
import socket
import struct
import threading
import time
from collections.abc import Generator

from .errors import ReplicationError, RpcError

__all__ = [
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
    "FrameError",
    "FrameTooLarge",
    "IdleTimer",
    "LoopServer",
    "TcpTransport",
    "TransportClosed",
    "check_listen",
    "connect_tcp",
    "frame_message",
    "handshake",
    "handshake_async",
    "read_frame",
    "write_frame",
]

#: the length prefix of every frame
FRAME_HEADER = struct.Struct("<Q")

#: default upper bound on one frame an asyncio listener accepts; a header
#: announcing more is treated as garbage and the connection is dropped
#: before any allocation
MAX_FRAME_BYTES = 64 * 1024 * 1024


class TransportClosed(ReplicationError):
    """The peer closed the channel (or the channel broke)."""


class FrameError(RpcError):
    """The byte stream did not contain a well-formed frame."""

    code = "bad_frame"


class FrameTooLarge(FrameError):
    """A frame header announced a payload over the configured bound."""

    code = "frame_too_large"


def frame_message(payload: bytes) -> bytes:
    """Prefix an encoded payload with the u64 length header."""
    return FRAME_HEADER.pack(len(payload)) + payload


# -- the mutual HMAC handshake -------------------------------------------

_NONCE_LEN = 16
_DIGEST_LEN = hashlib.sha256().digest_size

#: a step yields bytes to send, or the number of bytes to read next (and
#: is sent them); the generator returns whether the peer proved the token
_Steps = Generator["bytes | int", "bytes | None", bool]


def _digest(token: bytes | str, direction: bytes, nonce: bytes) -> bytes:
    key = token.encode("utf-8") if isinstance(token, str) else bytes(token)
    return hmac.new(key, direction + nonce, hashlib.sha256).digest()


def _listener_steps(token: bytes | str) -> _Steps:
    """The listener's side: challenge, check the answer, prove the token."""
    server_nonce = os.urandom(_NONCE_LEN)
    yield server_nonce
    answer = yield _NONCE_LEN + _DIGEST_LEN
    client_nonce, digest = answer[:_NONCE_LEN], answer[_NONCE_LEN:]
    if not hmac.compare_digest(digest, _digest(token, b"client", server_nonce)):
        return False
    yield _digest(token, b"server", client_nonce)
    return True


def _dialer_steps(token: bytes | str) -> _Steps:
    """The dialer's side: answer the challenge, then check the listener's proof."""
    server_nonce = yield _NONCE_LEN
    client_nonce = os.urandom(_NONCE_LEN)
    yield client_nonce + _digest(token, b"client", server_nonce)
    proof = yield _DIGEST_LEN
    return hmac.compare_digest(proof, _digest(token, b"server", client_nonce))


def handshake(sock: socket.socket, token: bytes | str, *, listener: bool) -> bool:
    """Run one side of the handshake over a blocking socket.

    True when the peer proved the token.  The socket's own timeout bounds
    every read; a broken or closed socket raises :class:`TransportClosed`.
    """
    steps = (_listener_steps if listener else _dialer_steps)(token)
    reply = None
    try:
        while True:
            step = steps.send(reply)
            if isinstance(step, int):
                reply = _recv_exact(sock, step)
            else:
                sock.sendall(step)
                reply = None
    except StopIteration as done:
        return done.value
    except EOFError:
        raise TransportClosed("peer closed during auth handshake") from None
    except OSError as exc:
        raise TransportClosed(f"auth handshake failed: {exc}") from exc


async def handshake_async(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    token: bytes | str,
    *,
    listener: bool,
) -> bool:
    """Run one side of the handshake over asyncio streams.

    True when the peer proved the token; the stream's own errors (a peer
    gone mid-handshake) propagate.
    """
    steps = (_listener_steps if listener else _dialer_steps)(token)
    reply = None
    try:
        while True:
            step = steps.send(reply)
            if isinstance(step, int):
                reply = await reader.readexactly(step)
            else:
                writer.write(step)
                await writer.drain()
                reply = None
    except StopIteration as done:
        return done.value


# -- the listen guard and dialing ----------------------------------------


def _is_loopback(host: str) -> bool:
    """True when *host* can only be reached from this machine."""
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False  # a hostname: assume reachable, require a token


def check_listen(
    host: str,
    auth_token: bytes | str | None,
    allow_unauthenticated: bool,
    what: str,
) -> None:
    """Refuse to *what* on a non-loopback *host* without a token.

    Raises :class:`~repro.errors.ReplicationError` unless *auth_token* is
    set, *host* is loopback, or *allow_unauthenticated* opts out (only
    for networks isolated by other means).
    """
    if auth_token is None and not allow_unauthenticated and not _is_loopback(host):
        raise ReplicationError(
            f"refusing to {what} on {host!r}: frames are pickles (remote code "
            "execution for anyone who can connect) — pass auth_token=..., or "
            "allow_unauthenticated=True on an otherwise-isolated network"
        )


def connect_tcp(
    host: str,
    port: int,
    timeout: float = 10.0,
    auth_token: bytes | str | None = None,
) -> "TcpTransport":
    """Dial a listener and return the dialer's :class:`TcpTransport`.

    Pass the listener's ``auth_token`` when it has one (every non-loopback
    listener does): the mutual handshake runs — the listener must prove
    the token too — before any frame is exchanged, under the connect
    *timeout*, so a listener that never answers cannot hang the dial.
    The socket is closed on any failure.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        if auth_token is not None and not handshake(sock, auth_token, listener=False):
            raise TransportClosed(
                "listener failed the auth handshake: wrong or missing token "
                "(is this really a shipping port?)"
            )
        return TcpTransport(sock, name=f"tcp/{host}:{port}")
    except BaseException:
        sock.close()
        raise


# -- the blocking adapter ------------------------------------------------


def _wait_readable(sock: socket.socket, deadline: float) -> bool:
    """Block until *sock* is readable or the monotonic *deadline* passes."""
    return bool(select.select([sock], [], [], max(deadline - time.monotonic(), 0.0))[0])


def _recv_exact(
    sock: socket.socket, count: int, deadline: float | None = None
) -> bytes | None:
    """Exactly *count* bytes from a blocking socket.

    With a *deadline*, reads do not block (``MSG_DONTWAIT``) and wait in
    ``select()`` only when no byte is ready; ``None`` when the deadline
    passes first.  Without one, reads block as long as the socket's own
    timeout allows.  ``EOFError`` when the peer closes first.
    """
    chunks: list[bytes] = []
    flags = 0 if deadline is None else socket.MSG_DONTWAIT
    while count:
        try:
            chunk = sock.recv(min(count, 1 << 20), flags)
        except BlockingIOError:
            if not _wait_readable(sock, deadline):
                return None
            continue
        if not chunk:
            raise EOFError
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


class TcpTransport:
    """Length-prefixed frames over one blocking TCP socket.

    ``send`` is serialised by a mutex (frames never interleave); the
    receive calls are meant for a single consumer thread, matching the
    shipper session, the replica applier and the blocking RPC client.
    The socket stays blocking: receive deadlines are kept with
    ``MSG_DONTWAIT`` reads and ``select()``, so they can never leak into
    a concurrent ``sendall()`` — a socket-level timeout would govern both
    directions.
    """

    def __init__(self, sock: socket.socket, name: str | None = None) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = False
        sock.settimeout(None)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - e.g. unix sockets in reuse
            pass
        self.name = name or f"tcp/{sock.fileno()}"

    def send(self, message) -> None:
        """Pickle, frame and send one message; raises
        :class:`TransportClosed` on a broken pipe."""
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        with self._send_lock:
            if self._closed:
                raise TransportClosed(f"{self.name} transport is closed")
            try:
                self._sock.sendall(frame_message(payload))
            except OSError as exc:
                self._closed = True
                raise TransportClosed(f"{self.name}: send failed: {exc}") from exc

    def recv(self, timeout: float | None = None):
        """The next message, or ``None`` when none starts within *timeout*.

        *timeout* bounds only the wait for a frame to begin: a frame that
        has begun is read to its end, because one snapshot frame may take
        longer to arrive than a replica's poll timeout.
        """
        payload = self._recv_frame(timeout, whole=False)
        return None if payload is None else pickle.loads(payload)

    def recv_payload(self, timeout: float | None = None) -> bytes | None:
        """The next frame's payload, still encoded, or ``None`` when no
        whole frame arrived within *timeout*.

        *timeout* bounds the whole frame, so a peer that stalls mid-frame
        cannot hang the caller; the transport is then closed, as the rest
        of that frame would be read as the next one.
        """
        return self._recv_frame(timeout, whole=True)

    def _recv_frame(self, timeout: float | None, whole: bool) -> bytes | None:
        with self._recv_lock:
            if self._closed:
                raise TransportClosed(f"{self.name} transport is closed")
            sock, deadline = self._sock, None
            try:
                if timeout is not None:
                    timeout = max(timeout, 0.0)
                    if whole:
                        deadline = time.monotonic() + timeout
                    # wait for the first byte: the reads after it rarely block
                    if not select.select([sock], [], [], timeout)[0]:
                        return None
                header = _recv_exact(sock, FRAME_HEADER.size, deadline)
                if header is not None:
                    (length,) = FRAME_HEADER.unpack(header)
                    payload = _recv_exact(sock, length, deadline)
                    if payload is not None:
                        return payload
            except EOFError:
                self._closed = True
                message = f"{self.name}: peer closed the connection"
                raise TransportClosed(message) from None
            except (OSError, ValueError) as exc:  # ValueError: select on a closed fd
                self._closed = True
                raise TransportClosed(f"{self.name}: recv failed: {exc}") from exc
        self.close()  # the deadline passed mid-frame: the stream is out of step
        return None

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


# -- the asyncio adapter -------------------------------------------------


class IdleTimer:
    """The idle / slow-loris guard of one connection: one timer, re-armed.

    :func:`read_frame` calls :meth:`start` when it begins waiting for a
    frame and :meth:`stop` once the frame is whole; a read still pending
    *timeout* seconds after its start fails with
    :class:`asyncio.TimeoutError`.  Starting and stopping only move a
    deadline — the one ``call_at`` handle is re-armed when it fires, not
    per request — so the guard costs a busy connection a clock read per
    frame instead of a task and a timer.  :meth:`cancel` when the
    connection closes.
    """

    def __init__(self, reader: asyncio.StreamReader, timeout: float) -> None:
        self._reader = reader
        self._timeout = timeout
        self._loop = asyncio.get_running_loop()
        self._deadline: float | None = None  # set while a frame read is pending
        self._handle: asyncio.TimerHandle | None = None

    def start(self) -> None:
        """A frame read begins: it must finish within the timeout."""
        self._deadline = self._loop.time() + self._timeout
        if self._handle is None:
            self._handle = self._loop.call_at(self._deadline, self._fire)

    def stop(self) -> None:
        """The frame read ended; nothing is pending."""
        self._deadline = None

    def cancel(self) -> None:
        """The connection is closing: drop the timer."""
        self._deadline = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        deadline = self._deadline
        if deadline is None:
            return  # no read pending: the next start() arms a new timer
        if self._loop.time() < deadline:
            self._handle = self._loop.call_at(deadline, self._fire)
        else:
            # wakes the pending read with the error; the stream is unusable
            # afterwards, which is the point — the connection is dropped
            self._reader.set_exception(asyncio.TimeoutError())


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    idle: IdleTimer | None = None,
) -> bytes | None:
    """Read one whole frame payload from an asyncio stream.

    Returns ``None`` on a clean EOF at a frame boundary.  Raises
    :class:`FrameTooLarge` when the header announces more than
    *max_frame_bytes* (the stream cannot be resynchronised — drop the
    connection), :class:`FrameError` on a mid-frame EOF, and
    :class:`asyncio.TimeoutError` when *idle*'s timeout elapses first (the
    slow-loris guard: a peer trickling header bytes forever is cut off).
    """
    if idle is not None:
        idle.start()
    try:
        try:
            header = await reader.readexactly(FRAME_HEADER.size)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between frames
            raise FrameError("connection closed mid-header") from exc
        (length,) = FRAME_HEADER.unpack(header)
        if length > max_frame_bytes:
            raise FrameTooLarge(
                f"frame of {length} bytes exceeds the {max_frame_bytes}-byte bound"
            )
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise FrameError("connection closed mid-frame") from exc
    finally:
        if idle is not None:
            idle.stop()


async def write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Frame *payload* onto an asyncio stream and wait for it to drain."""
    writer.writelines((FRAME_HEADER.pack(len(payload)), payload))
    await writer.drain()


# -- the server lifecycle ------------------------------------------------


class LoopServer:
    """An asyncio TCP server on its own event loop in a daemon thread.

    A subclass implements :meth:`_serve_connection`, the task of one
    accepted connection.  :meth:`start` binds and returns the bound
    ``(host, port)`` (a bind failure raises from it); :meth:`close` stops
    the loop, cancels the connection tasks still running and waits for
    them (idempotent).
    """

    def __init__(self, host: str, port: int, thread_name: str) -> None:
        self._host = host
        self._port = port
        self._thread_name = thread_name
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self.address: tuple[str, int] | None = None

    async def _serve_connection(self, reader, writer) -> None:
        raise NotImplementedError  # pragma: no cover - subclasses override

    async def _on_connection(self, reader, writer) -> None:
        """Only :meth:`close` cancels a connection task, as the loop shuts
        down; ending quietly then keeps Python 3.11's stream callback from
        logging the cancellation as an unhandled exception."""
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass

    def start(self) -> tuple[str, int]:
        """Bind and serve in a daemon thread; returns ``(host, port)``."""
        if self._thread is not None:
            return self.address
        ready = threading.Event()
        failure: list[BaseException] = []
        loop = asyncio.new_event_loop()
        self._loop = loop

        def run() -> None:
            asyncio.set_event_loop(loop)
            try:
                server = loop.run_until_complete(
                    asyncio.start_server(self._on_connection, self._host, self._port)
                )
            except BaseException as exc:  # bind failure: surface to start()
                failure.append(exc)
                ready.set()
                return
            self.address = server.sockets[0].getsockname()[:2]
            ready.set()
            try:
                loop.run_forever()
            finally:
                server.close()
                loop.run_until_complete(server.wait_closed())
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._thread = threading.Thread(target=run, name=self._thread_name, daemon=True)
        self._thread.start()
        ready.wait(timeout=10.0)
        if failure:
            self._thread.join(timeout=1.0)
            self._thread = None
            self._loop = None
            raise failure[0]
        return self.address

    def close(self) -> None:
        """Stop serving (idempotent); open connections are cancelled."""
        loop, thread = self._loop, self._thread
        self._loop = self._thread = None
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:  # pragma: no cover - loop already gone
            pass
        if thread is not None:
            thread.join(timeout=5.0)

    @property
    def listening(self) -> bool:
        """True while the server thread is alive and bound."""
        thread = self._thread
        return thread is not None and thread.is_alive() and self.address is not None

    def __enter__(self):
        """Context-manager entry: :meth:`start`, returning the server."""
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()
