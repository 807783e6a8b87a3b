"""The network layer: one handshake and one frame format across adapters.

* the mutual HMAC handshake between every pairing of the blocking and
  the asyncio adapter, with the right and a wrong token, and against a
  listener that cannot prove the token;
* a golden transcript: with the nonces pinned, one handshake plus one
  ``query`` request and response are byte-identical to recorded bytes;
* the blocking adapter's receive deadlines: the RPC client's timeout
  bounds a whole response, replication's ``recv`` finishes a started frame.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro import net
from repro.errors import RpcUnavailable
from repro.koko.results import ExtractionTuple, KokoResult, StageTimings
from repro.net import (
    FRAME_HEADER,
    TcpTransport,
    TransportClosed,
    handshake,
    handshake_async,
    read_frame,
    write_frame,
)
from repro.rpc import RpcClient
from repro.rpc.wire import RpcResponse, encode_message

TOKEN = "s3cret"


def socket_pair() -> tuple[socket.socket, socket.socket]:
    """A connected ``(dialer, accepted)`` pair of loopback TCP sockets."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        dialer = socket.create_connection(listener.getsockname()[:2], timeout=5.0)
        accepted, _ = listener.accept()
    return dialer, accepted


def run_side(adapter: str, sock: socket.socket, token: str, listener: bool) -> str:
    """One side of the handshake on *adapter*: ``authed`` or ``refused``.

    The socket is closed afterwards, as a real peer hangs up on a refusal.
    """
    if adapter == "sync":
        sock.settimeout(5.0)
        try:
            return "authed" if handshake(sock, token, listener=listener) else "refused"
        except TransportClosed:
            return "refused"
        finally:
            sock.close()

    async def side() -> str:
        reader, writer = await asyncio.open_connection(sock=sock)
        try:
            steps = handshake_async(reader, writer, token, listener=listener)
            return "authed" if await asyncio.wait_for(steps, 5.0) else "refused"
        except (asyncio.IncompleteReadError, ConnectionError):
            return "refused"
        finally:
            writer.close()

    return asyncio.run(side())


ADAPTER_PAIRS = [
    ("sync", "async"),
    ("async", "sync"),
    ("sync", "sync"),
    ("async", "async"),
]


@pytest.mark.parametrize("dialer_adapter, listener_adapter", ADAPTER_PAIRS)
@pytest.mark.parametrize("token, expected", [(TOKEN, "authed"), ("wrong", "refused")])
def test_handshake_across_adapters(dialer_adapter, listener_adapter, token, expected):
    dialer, accepted = socket_pair()
    with ThreadPoolExecutor(2) as pool:
        listening = pool.submit(run_side, listener_adapter, accepted, TOKEN, True)
        dialing = pool.submit(run_side, dialer_adapter, dialer, token, False)
        assert listening.result(timeout=10) == expected
        assert dialing.result(timeout=10) == expected


@pytest.mark.parametrize("dialer_adapter", ["sync", "async"])
def test_dialer_refuses_a_listener_that_cannot_prove_the_token(dialer_adapter):
    """A listener without the token can send a challenge but only a
    garbage proof; a dialer must not go on to exchange frames with it."""
    dialer, accepted = socket_pair()

    def impostor() -> None:
        with accepted:
            accepted.sendall(bytes(16))
            accepted.recv(64)
            accepted.sendall(bytes(32))

    with ThreadPoolExecutor(1) as pool:
        played = pool.submit(impostor)
        assert run_side(dialer_adapter, dialer, TOKEN, False) == "refused"
        played.result(timeout=5.0)


# ----------------------------------------------------------------------
# the golden transcript
# ----------------------------------------------------------------------
GOLDEN_TOKEN = b"golden-token"
GOLDEN_QUERY = 'extract e:Entity from "golden.txt" if ()'
GOLDEN_RESPONSE = RpcResponse(
    request_id=1,
    value=KokoResult(
        [
            ExtractionTuple("doc-a", 3, (("e", "espresso"),), (("e", 0.75),)),
            ExtractionTuple("doc-b", 7, (("e", "café"),), (("e", 0.5),)),
        ],
        StageTimings(0.001, 0.002, 0.003, 0.0, 0.004, 0.005),
        5,
        4,
    ),
    server_ms=1.25,
)

#: what the dialer sent: its nonce and answer, then one framed request
GOLDEN_DIALER = bytes.fromhex(
    "22222222222222222222222222222222289e9beb39909bf1b379ba46844517f2"
    "c8bd8c8703c5a8ef9905588a42b0994e0801000000000000800595fd00000000"
    "0000008c0e726570726f2e7270632e77697265948c0a52706352657175657374"
    "9493942981947d94288c026f70948c057175657279948c0461726773947d9428"
    "68068c286578747261637420653a456e746974792066726f6d2022676f6c6465"
    "6e2e74787422206966202829948c127468726573686f6c645f6f766572726964"
    "65944e8c0f6b6565705f616c6c5f73636f72657394898c10726561645f796f75"
    "725f777269746573944e8c0e7072656665725f7072696d6172799489758c0a72"
    "6571756573745f6964944b018c09636c69656e745f6964948c0d676f6c64656e"
    "2d636c69656e74948c08646561646c696e65944e8c057472616365944e75622e"
)

#: what the listener sent: its nonce and proof, then one framed response
#: (a pickled envelope and a ``columns-v1`` body)
GOLDEN_LISTENER = bytes.fromhex(
    "11111111111111111111111111111111a10c4bc22c9de54ac53d6d3f7fc9bd9a"
    "6200d82b0906a9dc0a404c174146efe06c010000000000008005959900000000"
    "0000008c0e726570726f2e7270632e77697265948c0b527063526573706f6e73"
    "659493942981947d94288c0a726571756573745f6964944b018c0576616c7565"
    "9468008c0b426f6479466f6c6c6f77739493942981947d94288c066e62797465"
    "73944bc88c05636f646563948c0a636f6c756d6e732d76319475628c05666175"
    "6c74944e8c097365727665725f6d7394473ff400000000000075622e4b4b5243"
    "01000700020000000100010005000000000000000400000000000000fca9f1d2"
    "4d62503ffca9f1d24d62603ffa7e6abc7493683f0000000000000000fca9f1d2"
    "4d62703f7b14ae47e17a743f0002000000000000000202000600000000000000"
    "0102070c14190019000000000000006565646f632d61646f632d626573707265"
    "73736f636166c3a9000400000000000000000100010002000000000000000307"
    "081000000000000000000000000000e83f000000000000e03f09020000000000"
    "00000101"
)


class RecordingRelay:
    """A TCP relay for one connection that records each direction's bytes."""

    def __init__(self, target: tuple[str, int]) -> None:
        self._target = target
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self.sent = {"dialer": bytearray(), "listener": bytearray()}
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _pump(self, source, sink, key) -> None:
        while chunk := source.recv(65536):
            self.sent[key] += chunk
            sink.sendall(chunk)
        sink.shutdown(socket.SHUT_WR)

    def _run(self) -> None:
        conn, _ = self._listener.accept()
        self._listener.close()
        with conn, socket.create_connection(self._target) as upstream:
            back = threading.Thread(
                target=self._pump, args=(upstream, conn, "listener")
            )
            back.start()
            self._pump(conn, upstream, "dialer")
            back.join()

    def join(self) -> None:
        self._thread.join(timeout=5.0)
        assert not self._thread.is_alive()


def test_one_handshake_and_query_exchange_is_byte_identical_to_the_golden(
    monkeypatch,
):
    """The blocking RPC client dials through a recording relay to a
    listener built from the asyncio adapter, which answers one fixed
    response; nonces come from a pinned ``os.urandom``."""
    draws = itertools.count(1)
    monkeypatch.setattr(
        net, "os", SimpleNamespace(urandom=lambda n: bytes([next(draws) * 0x11]) * n)
    )
    served: list[bool] = []
    bound: queue.Queue = queue.Queue()

    async def on_connection(reader, writer) -> None:
        steps = handshake_async(reader, writer, GOLDEN_TOKEN, listener=True)
        served.append(await steps)
        await read_frame(reader)
        await write_frame(writer, encode_message(GOLDEN_RESPONSE))
        served.append(await read_frame(reader) is None)
        writer.close()

    async def serve() -> None:
        server = await asyncio.start_server(on_connection, "127.0.0.1", 0)
        bound.put(server.sockets[0].getsockname()[:2])
        async with server:
            deadline = time.monotonic() + 10.0
            while len(served) < 2 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)

    thread = threading.Thread(target=asyncio.run, args=(serve(),), daemon=True)
    thread.start()
    try:
        relay = RecordingRelay(bound.get(timeout=5.0))
        with RpcClient(
            *relay.address,
            auth_token=GOLDEN_TOKEN,
            client_id="golden-client",
            timeout=5.0,
        ) as client:
            result = client.query(GOLDEN_QUERY)
        relay.join()
    finally:
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert served == [True, True]
    assert list(result) == list(GOLDEN_RESPONSE.value)
    assert bytes(relay.sent["dialer"]) == GOLDEN_DIALER
    assert bytes(relay.sent["listener"]) == GOLDEN_LISTENER


# ----------------------------------------------------------------------
# receive deadlines of the blocking adapter
# ----------------------------------------------------------------------
def test_client_timeout_bounds_a_response_that_stalls_mid_frame():
    """A server that sends part of a frame and stalls must not hang the
    caller: the timeout covers the whole response, and the connection is
    gone afterwards, so the next call fails fast."""
    stalled = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def stall() -> None:
            conn, _ = listener.accept()
            with conn:
                header = conn.recv(FRAME_HEADER.size)
                conn.recv(FRAME_HEADER.unpack(header)[0], socket.MSG_WAITALL)
                conn.sendall(FRAME_HEADER.pack(4096)[:5])
                stalled.wait(10.0)

        with ThreadPoolExecutor(1) as pool:
            stalling = pool.submit(stall)
            try:
                client = RpcClient(*listener.getsockname()[:2], timeout=0.5)
                started = time.monotonic()
                with pytest.raises(RpcUnavailable, match="client timeout"):
                    client.ping()
                assert time.monotonic() - started < 2.0
                started = time.monotonic()
                with pytest.raises(RpcUnavailable):
                    client.ping()
                assert time.monotonic() - started < 0.05
            finally:
                stalled.set()
            stalling.result(timeout=5.0)


def test_replication_recv_reads_a_started_frame_past_its_timeout():
    """``recv``'s timeout bounds only the wait for a frame to begin: a
    snapshot frame may take longer to arrive than the poll timeout."""
    dialer, accepted = socket_pair()
    receiver = TcpTransport(dialer)
    payload = b"\x80\x05K\x07."  # pickle of 7
    frame = FRAME_HEADER.pack(len(payload)) + payload
    rest = threading.Timer(0.3, accepted.sendall, (frame[5:],))
    try:
        accepted.sendall(frame[:5])
        rest.start()
        assert receiver.recv(timeout=0.1) == 7
        assert receiver.recv(timeout=0.0) is None  # the stream is still in step
    finally:
        rest.join(timeout=5.0)
        receiver.close()
        accepted.close()
