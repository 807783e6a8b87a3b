"""Hot reads: answered where they arrive, encoded once, decoded once.

A query the node's result cache can answer is answered on the server's
event loop (no executor hop), every result travels as a typed body and is
never pickled, a cached answer's wire bytes are kept in the cache entry
beside the value, so a repeated response is not re-encoded, and each
client keeps the bodies it decoded, so a byte-equal body is not decoded
again.  These tests pin all four, the requests that must still take the
executor, the frame layout's failure modes in both clients, and that
nothing about the answers, admission, deadlines or invalidation changed.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    RpcBadRequest,
    RpcDeadlineExceeded,
    RpcRateLimited,
    RpcUnavailable,
)
from repro.koko.engine import KokoEngine, compile_query
from repro.koko.results import ExtractionTuple, KokoResult
from repro.nlp.types import Corpus
from repro.observability.exposition import _underlying_service
from repro import net
from repro.rpc import AdmissionPolicy, AsyncRpcClient, RpcClient, RpcServer
from repro.rpc import server as server_module
from repro.net import FRAME_HEADER, frame_message
from repro.rpc.wire import (
    BodyFollows,
    FrameError,
    RpcResponse,
    decode_body,
    decode_message,
    decode_response,
    encode_body,
    encode_message,
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


def whole(result: KokoResult):
    """Everything a client can see of a result: tuples, scores, timings, counters."""
    return (
        as_rows(result),
        result.timings.as_dict(),
        result.candidate_sentences,
        result.evaluated_sentences,
    )


class Served:
    """A node behind an ``RpcServer``, with the spies the tests read."""

    def __init__(self, node, listen_ready, **server_kwargs) -> None:
        self.server = RpcServer(node, **server_kwargs)
        self.submits = 0
        #: thread ident of every result-cache hit served through this node
        self.hit_threads: list[int] = []
        submit = self.server._executor.submit

        def counted_submit(*args, **kwargs):
            self.submits += 1
            return submit(*args, **kwargs)

        self.server._executor.submit = counted_submit
        service = _underlying_service(node)
        cached_result = service.cached_result

        def spied_cached_result(*args, **kwargs):
            entry = cached_result(*args, **kwargs)
            if entry is not None:
                self.hit_threads.append(threading.get_ident())
            return entry

        service.cached_result = spied_cached_result
        self.address = listen_ready(*self.server.start())
        self.loop_thread = self.server._thread.ident
        self.clients: list[RpcClient] = []

    def client(self, **kwargs) -> RpcClient:
        client = RpcClient(*self.address, **kwargs)
        self.clients.append(client)
        return client

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.close()


@pytest.fixture
def serve(listen_ready):
    """Factory: ``serve(node, **server_kwargs)`` → a started :class:`Served`."""
    served: list[Served] = []

    def _serve(node, **server_kwargs) -> Served:
        served.append(Served(node, listen_ready, **server_kwargs))
        return served[-1]

    try:
        yield _serve
    finally:
        for one in served:
            one.close()


@pytest.fixture
def service():
    with KokoService(shards=2, trace_sample_rate=0.0) as service:
        for index, text in enumerate(TEXTS):
            service.add_document(text, f"doc{index}")
        yield service


# ----------------------------------------------------------------------
# (a) hits are answered on the event loop; everything else is not
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["primary", "replica"])
def test_repeated_query_is_answered_on_the_loop_with_no_executor_submit(
    make_tcp_cluster, serve, kind
):
    cluster = make_tcp_cluster(texts=TEXTS, trace_sample_rate=0.0)
    node = cluster.primary if kind == "primary" else cluster.replica
    served = serve(node)
    client = served.client()

    first = client.query(CITY_QUERY)  # a miss: computed on an executor thread
    assert served.submits == 1 and served.hit_threads == []
    for _ in range(3):
        assert as_rows(client.query(CITY_QUERY)) == as_rows(first)
    assert served.submits == 1
    assert as_rows(first) == as_rows(cluster.primary.query(CITY_QUERY, explain=True).result)
    assert served.hit_threads == [served.loop_thread] * 3
    # a different key misses again
    client.query(CITY_QUERY, threshold_override=0.25)
    assert served.submits == 2


def test_router_token_and_sampled_trace_requests_still_take_the_executor(
    make_tcp_cluster, serve
):
    cluster = make_tcp_cluster(texts=TEXTS, trace_sample_rate=0.0)
    local = as_rows(cluster.primary.query(ENTITY_QUERY))

    router = serve(cluster.router)
    router_client = router.client()
    for _ in range(3):
        assert as_rows(router_client.query(ENTITY_QUERY)) == local
    assert router.submits == 3

    primary = serve(cluster.primary)
    plain = primary.client()
    assert as_rows(plain.query(ENTITY_QUERY)) == local  # cached by the router reads
    assert primary.submits == 0
    # a read-your-writes token is checked on the executor (it may wait on the WAL lock)
    token = cluster.primary.wal_position()
    assert as_rows(plain.query(ENTITY_QUERY, read_your_writes=token)) == local
    assert primary.submits == 1
    # a sampled trace header records the executor path's span tree
    traced = primary.client(trace_sample_rate=1.0)
    assert as_rows(traced.query(ENTITY_QUERY)) == local
    assert primary.submits == 2
    fragment = cluster.primary.trace_store.get(traced.traces.recent(1)[0]["trace_id"])
    assert fragment is not None
    # all of them were hits for the service, wherever they were answered
    assert cluster.primary.metrics.get("koko_result_cache_hits_total").value >= 3


def test_admission_deadline_and_closed_service_are_the_same_on_both_paths(
    service, serve
):
    served = serve(
        service, admission=AdmissionPolicy(query_rate=0.001, query_burst=2)
    )
    # burst of 2: the miss and one hit are admitted, the next hit is refused
    # exactly as the next miss would be
    limited = served.client(client_id="greedy")
    limited.query(CITY_QUERY)
    limited.query(CITY_QUERY)
    with pytest.raises(RpcRateLimited):
        limited.query(CITY_QUERY)
    with pytest.raises(RpcRateLimited):
        limited.query(CITY_QUERY, threshold_override=0.11)
    assert served.hit_threads == [served.loop_thread]

    unlimited = serve(service)
    client = unlimited.client()
    assert len(client.query(CITY_QUERY)) > 0 and unlimited.submits == 0
    # an already-expired budget is refused before the cache is looked at
    hits_before = len(unlimited.hit_threads)
    for threshold in (None, 0.12):  # a would-be hit, a would-be miss
        with pytest.raises(RpcDeadlineExceeded):
            client.query(CITY_QUERY, threshold_override=threshold, deadline=0.0)
    assert len(unlimited.hit_threads) == hits_before and unlimited.submits == 0
    # a closed service answers neither path
    service.close()
    faults = []
    for threshold in (None, 0.13):
        with pytest.raises(RpcBadRequest) as caught:
            client.query(CITY_QUERY, threshold_override=threshold)
        faults.append(str(caught.value))
    assert faults[0] == faults[1] and "closed" in faults[0]


def test_cached_result_is_the_hit_path_of_query(service):
    assert service.cached_result(CITY_QUERY) is None  # a miss records nothing
    served = service.metrics.get("koko_queries_served_total")
    hits = service.metrics.get("koko_result_cache_hits_total")
    assert served.value == 0
    result = service.query(CITY_QUERY)
    entry = service.cached_result(CITY_QUERY)
    assert entry.value is result and service.query(CITY_QUERY) is result
    assert (served.value, hits.value) == (3, 2)
    assert service.cached_result(compile_query(CITY_QUERY)) is None
    service.close()
    assert service.cached_result(CITY_QUERY) is None


def test_a_loop_inline_hit_is_counted_but_never_sampled_locally(serve):
    """The documented gap: a hit answered on the event loop bumps the hit
    counter but is not sampled by the service's own tracer, even at
    ``trace_sample_rate=1.0`` — only a caller's sampled trace header (which
    takes the executor path) traces a hit that arrives over RPC."""
    with KokoService(shards=2, trace_sample_rate=1.0) as service:
        service.add_document(TEXTS[2], "doc2")
        sampled = service.metrics.get("koko_traces_sampled_total")
        hits = service.metrics.get("koko_result_cache_hits_total")
        after_ingest = sampled.value  # the traced add
        service.query(CITY_QUERY)  # in-process: sampled, and now cached
        service.query(CITY_QUERY)  # an in-process hit is sampled too
        assert (sampled.value - after_ingest, hits.value) == (2, 1)
        traced, stored = sampled.value, len(service.trace_store)

        served = serve(service)
        client = served.client()
        for _ in range(3):
            assert len(client.query(CITY_QUERY)) > 0
        assert served.hit_threads == [served.loop_thread] * 3
        assert hits.value == 4
        assert sampled.value == traced and len(service.trace_store) == stored


def test_unknown_ops_are_still_counted_by_name(service, serve):
    served = serve(service)
    client = served.client()
    with pytest.raises(RpcBadRequest):
        client._call("no_such_op", {}, None)
    client.ping()
    requests = service.metrics.counter("koko_rpc_requests_total", "", ("op",))
    assert requests.labels("no_such_op").value == 1
    assert requests.labels("ping").value == 1


# ----------------------------------------------------------------------
# (b) results travel as typed bodies; a cached one is encoded once, and
#     its bytes die with the entry
# ----------------------------------------------------------------------
@pytest.fixture
def result_pickles(monkeypatch):
    """Every pickling or unpickling of a ``KokoResult`` or ``ExtractionTuple``.

    Pickling is caught at any depth (``__reduce_ex__``); unpickling as the
    value ``pickle.load``/``pickle.loads`` return, or that value's ``value``.
    """
    seen: list[str] = []
    watched = (KokoResult, ExtractionTuple)
    for cls in watched:

        def reduce_ex(self, protocol, _original=cls.__reduce_ex__):
            seen.append(f"pickled {type(self).__name__}")
            return _original(self, protocol)

        monkeypatch.setattr(cls, "__reduce_ex__", reduce_ex)

    def watching(load):
        def spy(*args, **kwargs):
            obj = load(*args, **kwargs)
            for candidate in (obj, getattr(obj, "value", None)):
                if isinstance(candidate, watched):
                    seen.append(f"unpickled {type(candidate).__name__}")
            return obj

        return spy

    monkeypatch.setattr(pickle, "load", watching(pickle.load))
    monkeypatch.setattr(pickle, "loads", watching(pickle.loads))
    return seen


def test_no_query_response_pickles_a_result(service, serve, result_pickles):
    served = serve(service)
    client = served.client()
    local = whole(service.query(ENTITY_QUERY))  # cached in-process: no encoding yet
    encodes = []
    real_encode_body = server_module.encode_body

    def counted_encode_body(value):
        encodes.append(value)
        return real_encode_body(value)

    server_module.encode_body = counted_encode_body
    try:
        first = client.query(ENTITY_QUERY)  # first sending builds the entry's body
        for _ in range(3):
            assert whole(client.query(ENTITY_QUERY)) == whole(first) == local
        assert len(encodes) == 1 and served.submits == 0
    finally:
        server_module.encode_body = real_encode_body

    async def ask_async(threshold):
        async with await AsyncRpcClient.connect(*served.address) as async_client:
            return await async_client.query(ENTITY_QUERY, threshold_override=threshold)

    assert whole(asyncio.run(ask_async(None))) == local  # a hit
    # misses ship the same typed body, through either client
    missed = client.query(ENTITY_QUERY, threshold_override=0.4)
    assert as_rows(missed) == as_rows(service.query(ENTITY_QUERY, threshold_override=0.4))
    async_missed = asyncio.run(ask_async(0.45))
    assert as_rows(async_missed) == as_rows(
        service.query(ENTITY_QUERY, threshold_override=0.45)
    )
    assert served.submits == 2
    assert result_pickles == []
    # the spies do see a pickled result (query_batch keeps its envelope pickle)
    client.query_batch([ENTITY_QUERY])
    assert "pickled KokoResult" in result_pickles


def cached_bodies(service: KokoService) -> list[bytes]:
    """Every encoded body reachable from the service's result cache."""
    entries = service._read._result_cache._entries._entries.values()
    return [entry.encoded for entry in entries if entry.encoded is not None]


def test_a_write_leaves_no_stale_body(service, serve):
    served = serve(service)
    client = served.client()
    for _ in range(2):
        before = client.query(ENTITY_QUERY)
    (old_body,) = cached_bodies(service)
    assert as_rows(decode_body(old_body)) == as_rows(before)

    service.add_document("Maria ate a delicious tart in Lisbon.", "tart")
    assert client.query(ENTITY_QUERY) is not None  # a miss: evicts the stale entry
    assert cached_bodies(service) == []
    after = client.query(ENTITY_QUERY)  # the new entry's first sending
    assert "tart" in {row[0] for row in as_rows(after)}
    (new_body,) = cached_bodies(service)
    assert new_body != old_body and as_rows(decode_body(new_body)) == as_rows(after)

    service.remove_document("tart")
    assert as_rows(client.query(ENTITY_QUERY)) == as_rows(before)
    assert cached_bodies(service) == []


def test_eviction_leaves_no_bytes_behind(listen_ready, serve):
    with KokoService(shards=1, result_cache_size=1, trace_sample_rate=0.0) as small:
        small.add_document(TEXTS[0], "doc0")
        served = serve(small)
        client = served.client()
        for _ in range(2):
            client.query(ENTITY_QUERY)
        (entity_body,) = cached_bodies(small)
        for _ in range(2):
            client.query(CITY_QUERY)  # capacity 1: evicts the entity entry
        (city_body,) = cached_bodies(small)
        assert city_body != entity_body and len(small._read._result_cache) == 1


# ----------------------------------------------------------------------
# (c) a client decodes each distinct body once; every call gets its own result
# ----------------------------------------------------------------------
def decode_counts(client) -> tuple[int, int]:
    stats = client.stats()
    return stats["bodies_decoded"], stats["bodies_reused"]


def test_a_repeated_answer_is_decoded_once_and_each_call_gets_its_own_result(
    service, serve
):
    served = serve(service)
    client = served.client()
    # a miss, then hits: the miss's body and the cached one are the same bytes
    answers = [client.query(CITY_QUERY) for _ in range(4)]
    assert decode_counts(client) == (1, 3)
    assert len({id(answer) for answer in answers}) == 4
    assert len({id(answer.timings) for answer in answers}) == 4
    assert {id(answer.columns) for answer in answers} == {id(answers[0].columns)}
    assert all(whole(answer) == whole(answers[0]) for answer in answers)
    kept = whole(answers[0])
    answers[1].timings.extract = -1.0  # one caller's result is its own
    assert whole(client.query(CITY_QUERY)) == kept
    # another client decodes for itself
    assert whole(served.client().query(CITY_QUERY)) == kept
    assert decode_counts(served.clients[-1]) == (1, 0)

    # a write changes the answer and its bytes: decoded afresh
    service.add_document("Lisbon is a city in Portugal.", "lisbon")
    after = client.query(CITY_QUERY)
    assert decode_counts(client) == (2, 4)
    assert as_rows(after) == as_rows(service.query(CITY_QUERY))
    assert "Lisbon" in {value for row in as_rows(after) for _, value in row[2]}
    service.remove_document("lisbon")
    assert as_rows(client.query(CITY_QUERY)) == kept[0]
    assert decode_counts(client) == (3, 4)


def test_the_async_client_keeps_its_own_decoded_bodies(service, serve):
    served = serve(service)
    expected = whole(service.query(ENTITY_QUERY))

    async def ask():
        async with await AsyncRpcClient.connect(*served.address) as client:
            answers = [await client.query(ENTITY_QUERY) for _ in range(3)]
            return answers, decode_counts(client)

    answers, counts = asyncio.run(ask())
    assert counts == (1, 2) and len({id(answer) for answer in answers}) == 3
    assert all(whole(answer) == expected for answer in answers)


_writes = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 5)),
    st.tuples(st.just("remove"), st.integers(0, 5)),
    st.tuples(st.just("read"), st.integers(1, 3)),
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(script=st.lists(_writes, min_size=1, max_size=8))
def test_interleaved_writes_and_repeated_reads_match_a_fresh_engine(
    listen_ready, script
):
    with KokoService(shards=2, trace_sample_rate=0.0) as service:
        mirror = {"base": service.add_document(TEXTS[0], "base")}
        server = RpcServer(service)
        client = RpcClient(*listen_ready(*server.start()))
        try:
            for action, n in [*script, ("read", 2)]:
                doc_id = f"extra{n}"
                if action == "add" and doc_id not in mirror:
                    mirror[doc_id] = service.add_document(TEXTS[n], doc_id)
                elif action == "remove" and doc_id in mirror:
                    service.remove_document(doc_id)
                    del mirror[doc_id]
                elif action == "read":
                    reference = KokoEngine(
                        Corpus(name="reference", documents=list(mirror.values()))
                    )
                    for query in (ENTITY_QUERY, CITY_QUERY):
                        expected = as_rows(reference.execute(query))
                        for _ in range(n):
                            assert as_rows(client.query(query)) == expected
        finally:
            client.close()
            server.close()


# ----------------------------------------------------------------------
# the frame layout: envelope ‖ body, and how it fails
# ----------------------------------------------------------------------
def test_two_part_payload_round_trips_and_announces_its_body():
    result = KokoResult(candidate_sentences=3, evaluated_sentences=2)
    response = RpcResponse(request_id=7, value=result, server_ms=0.5)
    body = encode_body(result)
    payload = encode_message(response, body)
    assert payload.endswith(body) and len(payload) > len(body)
    assert decode_response(payload) == response
    assert decode_response(encode_message(response)) == response
    # a decoder that does not know the layout sees a marker, never ``None``
    envelope = decode_message(payload)
    assert envelope.value == BodyFollows(len(body)) and envelope.request_id == 7


def _malformed(kind: str, request_id: int) -> bytes:
    result = KokoResult()
    body = encode_body(result)
    response = RpcResponse(request_id=request_id, value=result, server_ms=0.1)
    if kind == "truncated body":
        return encode_message(response, body)[:-3]
    if kind == "over-long body":
        return encode_message(response, body) + b"\x00\x00"
    if kind == "unknown codec":
        marker = BodyFollows(len(body), codec="typed-v9")
        envelope = RpcResponse(request_id=request_id, value=marker, server_ms=0.1)
        return encode_message(envelope) + body
    if kind == "trailing bytes":
        return encode_message(response) + b"junk"
    return encode_message({"not": "a response"})


MALFORMED = [
    "truncated body",
    "over-long body",
    "unknown codec",
    "trailing bytes",
    "not a response",
]


@pytest.fixture
def malformed_server():
    """A raw TCP peer that answers every request frame with a malformed one."""
    listener = socket.create_server(("127.0.0.1", 0))
    kinds: list[str] = []

    def answer() -> None:
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as stream:
            (length,) = FRAME_HEADER.unpack(stream.read(FRAME_HEADER.size))
            request = decode_message(stream.read(length))
            conn.sendall(frame_message(_malformed(kinds[0], request.request_id)))

    thread = threading.Thread(target=answer, daemon=True)

    def start(kind: str) -> tuple[str, int]:
        kinds.append(kind)
        thread.start()
        return listener.getsockname()[:2]

    try:
        yield start
    finally:
        thread.join(timeout=5.0)
        listener.close()
        assert not thread.is_alive()


@pytest.mark.parametrize("kind", MALFORMED)
def test_blocking_client_raises_frame_error_on_a_malformed_response(
    malformed_server, kind
):
    with RpcClient(*malformed_server(kind), timeout=5.0) as client:
        with pytest.raises(FrameError):
            client.query(CITY_QUERY)


@pytest.mark.parametrize("kind", MALFORMED)
def test_async_client_raises_frame_error_on_a_malformed_response(
    malformed_server, kind
):
    async def ask(address):
        async with await AsyncRpcClient.connect(*address) as client:
            await client.query(CITY_QUERY)

    with pytest.raises(FrameError):
        asyncio.run(ask(malformed_server(kind)))


@settings(max_examples=200, deadline=None)
@given(junk=st.binary(max_size=96))
def test_decode_response_raises_nothing_but_frame_error(junk):
    envelope = encode_message(RpcResponse(request_id=1, value=BodyFollows(len(junk))))
    for payload in (junk, envelope + junk, envelope[: len(envelope) // 2] + junk):
        try:
            response = decode_response(payload)
        except FrameError:
            continue
        assert isinstance(response, RpcResponse)
        assert not isinstance(response.value, BodyFollows)


# ----------------------------------------------------------------------
# the client timeout and the server's idle timer
# ----------------------------------------------------------------------
def test_client_timeout_never_hands_a_late_answer_to_the_next_call(
    service, serve, monkeypatch
):
    served = serve(service)
    query = service.query

    def slow_query(text, **kwargs):
        if text == CITY_QUERY:
            time.sleep(0.3)
        return query(text, **kwargs)

    monkeypatch.setattr(service, "query", slow_query)
    client = served.client(timeout=0.05)
    with pytest.raises(RpcUnavailable, match="client timeout of 0.05s"):
        client.query(CITY_QUERY)
    # the late CITY answer is never read as ENTITY's: the connection is gone
    started = time.monotonic()
    with pytest.raises(RpcUnavailable):
        client.query(ENTITY_QUERY)
    assert time.monotonic() - started < 0.05
    patient = served.client(timeout=5.0)
    assert as_rows(patient.query(ENTITY_QUERY)) == as_rows(query(ENTITY_QUERY))


def test_async_client_times_out_on_a_listener_that_never_replies():
    """``AsyncRpcClient`` bounds each exchange by the ``timeout`` given to
    ``connect()``: a server that reads the request and never answers costs
    one timeout, then the connection is closed and later calls fail fast."""
    listener = socket.create_server(("127.0.0.1", 0))
    accepted: list[socket.socket] = []

    def read_and_never_reply():
        sock, _ = listener.accept()
        accepted.append(sock)
        sock.recv(65536)

    thread = threading.Thread(target=read_and_never_reply)
    thread.start()

    async def drive():
        client = await AsyncRpcClient.connect(*listener.getsockname()[:2], timeout=0.2)
        try:
            started = time.monotonic()
            with pytest.raises(RpcUnavailable, match="client timeout of 0.2s"):
                await client.ping()
            assert time.monotonic() - started < 2.0
            started = time.monotonic()
            with pytest.raises(RpcUnavailable):
                await client.ping()
            assert time.monotonic() - started < 0.1
        finally:
            await client.close()

    try:
        asyncio.run(asyncio.wait_for(drive(), 10.0))  # the test's own backstop
    finally:
        thread.join(timeout=5.0)
        for sock in accepted:
            sock.close()
        listener.close()


@pytest.mark.parametrize("refused", ["oversized", "cut mid-frame"])
def test_async_client_closes_the_connection_after_refusing_a_frame(
    monkeypatch, refused
):
    """A response frame ``read_frame`` refuses leaves the stream out of step:
    the client raises ``RpcUnavailable`` and closes the connection, so the
    unread rest of that frame is never read as the next answer's header."""
    monkeypatch.setattr(net, "MAX_FRAME_BYTES", 1000)
    listener = socket.create_server(("127.0.0.1", 0))
    asked: list[int] = []

    def answer() -> None:
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as stream:
            while True:
                header = stream.read(FRAME_HEADER.size)
                if len(header) < FRAME_HEADER.size:
                    return
                request = decode_message(stream.read(FRAME_HEADER.unpack(header)[0]))
                asked.append(request.request_id)
                if refused == "cut mid-frame":
                    conn.sendall(FRAME_HEADER.pack(100) + b"x" * 10)
                    return
                if request.request_id == 1:
                    conn.sendall(frame_message(b"x" * 2000))
                else:
                    pong = RpcResponse(request_id=request.request_id, value="pong")
                    conn.sendall(frame_message(encode_message(pong)))

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()

    async def drive():
        client = await AsyncRpcClient.connect(*listener.getsockname()[:2], timeout=5.0)
        try:
            with pytest.raises(RpcUnavailable, match="connection closed"):
                await client.ping()
            with pytest.raises(RpcUnavailable, match="connection is closed"):
                await client.ping()
        finally:
            await client.close()

    try:
        asyncio.run(asyncio.wait_for(drive(), 10.0))
    finally:
        thread.join(timeout=5.0)
        listener.close()
    assert asked == [1] and not thread.is_alive()


def test_idle_timer_spares_a_busy_connection_and_cuts_an_idle_one(
    service, serve, monkeypatch
):
    monkeypatch.setattr(server_module, "IDLE_SECONDS", 0.3)
    served = serve(service)
    client = served.client()
    cut = service.metrics.counter(
        "koko_rpc_transport_errors_total", "", ("kind",)
    ).labels("idle_timeout")
    deadline = time.monotonic() + 0.9  # three timeouts' worth of steady traffic
    while time.monotonic() < deadline:
        assert client.ping()["ok"]
        time.sleep(0.05)
    assert cut.value == 0
    time.sleep(0.6)  # silence: the one re-armed timer fires
    assert cut.value == 1
    with pytest.raises(RpcUnavailable):
        client.ping()
