"""The ``columns-v1`` body: a ``KokoResult`` on the wire, typed and checked.

Every ``query`` answer travels as ``envelope ‖ body`` where the body is the
result's columns, not a pickle.  These tests pin the round trip (tuples
and scores bit for bit, numeric columns wrapped in place), the decoder's
refusal of every malformed body with ``FrameError`` and nothing else —
fed straight in and through both clients — and, over random corpora with
removes, that a query answers the same in-process, through ``RpcClient``
and through ``AsyncRpcClient`` as a fresh engine over the reference
indexes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.koko.engine import KokoEngine
from repro.koko.parser import parse_query
from repro.koko.results import ExtractionTuple, KokoResult, StageTimings
from repro.nlp.types import Corpus
from repro.rpc import AsyncRpcClient, RpcClient, RpcServer
from repro.rpc import wire
from repro.net import FRAME_HEADER, frame_message
from repro.rpc.wire import (
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
SCORED_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e)) '
    'satisfying d (str(d) contains "pie" {1}) with threshold 0.5'
)
CITY_QUERY = (
    'extract a:GPE from "input.txt" if () satisfying a '
    '(a SimilarTo "city" {1.0}) with threshold 0.3'
)
EMPTY_QUERY = 'extract x:Entity from "t" if (/ROOT:{ a = //"zebra" })'
#: the scored query with no output variable (only a parsed query can say it)
NO_OUTPUT_QUERY = dataclasses.replace(parse_query(SCORED_QUERY), outputs=[])

TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "cities in asian countries such as Beijing and Tokyo.",
    "Paolo visited Beijing and ate a delicious croissant.",
    "Maria ate a delicious pie in Tokyo.",
    "The barista in Osaka served a delicious espresso.",
    "Ünsal in Zürich ate a delicious pie, then a crêpe.",
]


def exact(result):
    """Tuples with scores as ``repr``: equal only when bit-identical."""
    return [(t.doc_id, t.sid, t.values, repr(t.scores)) for t in result]


def a_result() -> KokoResult:
    return KokoResult(
        tuples=[
            ExtractionTuple("d1", 3, (("x", "Zürich"), ("y", "")), (("v", 0.1 + 0.2),)),
            ExtractionTuple("d1", 3, (("x", "A"), ("y", "B")), ()),
            ExtractionTuple("d2", 9, (("x", "A"), ("y", "C")), (("v", -0.0),)),
        ],
        timings=StageTimings(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        candidate_sentences=7,
        evaluated_sentences=6,
    )


# ----------------------------------------------------------------------
# the round trip
# ----------------------------------------------------------------------
@st.composite
def results(draw) -> KokoResult:
    variables = draw(st.lists(st.sampled_from("abc"), max_size=3, unique=True))
    scored = draw(st.lists(st.sampled_from("vw"), max_size=2, unique=True))
    rows = [
        ExtractionTuple(
            draw(st.text(max_size=5)),
            draw(st.integers(0, 2**40)),
            tuple((name, draw(st.text(max_size=5))) for name in variables),
            tuple(
                (name, draw(st.floats(allow_nan=False)))
                for name in scored
                if draw(st.booleans())  # an unbound scored variable has none
            ),
        )
        for _ in range(draw(st.integers(0, 8)))
    ]
    return KokoResult(
        tuples=rows,
        timings=StageTimings(*draw(st.lists(st.floats(0, 1e3), min_size=6, max_size=6))),
        candidate_sentences=draw(st.integers(0, 2**40)),
        evaluated_sentences=draw(st.integers(0, 2**40)),
    )


@settings(max_examples=150, deadline=None)
@given(result=results())
def test_every_result_survives_the_body_round_trip(result):
    decoded = decode_body(encode_body(result))
    assert decoded == result
    assert exact(decoded) == exact(result)
    response = RpcResponse(request_id=3, value=result, server_ms=0.2)
    assert decode_response(encode_message(response)) == response


def test_the_body_is_typed_and_decoded_in_place():
    result = a_result()
    body = encode_body(result)
    assert body.startswith(b"KKRC") and b"Z\xc3\xbcrich" in body
    with pytest.raises(FrameError):
        decode_message(body)  # not a pickle
    decoded = decode_body(body)
    columns = decoded.columns
    for array in (columns.index, columns.sid, columns.scores, columns.present):
        assert not array.flags.owndata and not array.flags.writeable
    assert columns.scores.dtype == np.float64 and columns.present.dtype == np.bool_
    assert exact(decoded) == exact(result)
    assert decoded.timings == result.timings


def test_a_result_response_is_envelope_and_body_and_never_a_pickled_result():
    result = a_result()
    payload = encode_message(RpcResponse(request_id=1, value=result))
    body = encode_body(result)
    assert payload.endswith(body)
    envelope = decode_message(payload[: len(payload) - len(body)])
    assert envelope.value == wire.BodyFollows(len(body), "columns-v1")


# ----------------------------------------------------------------------
# the decoder fails closed
# ----------------------------------------------------------------------
def _valid_or_frame_error(body) -> None:
    """Decode *body*: a FrameError, or a result whose tuples all build."""
    try:
        decoded = decode_body(body)
    except FrameError:
        return
    list(decoded)
    decoded.approximate_bytes()


@settings(max_examples=300, deadline=None)
@given(junk=st.binary(max_size=200))
def test_arbitrary_bytes_decode_to_frame_error_only(junk):
    _valid_or_frame_error(junk)
    _valid_or_frame_error(encode_body(a_result())[:40] + junk)


_mutations = st.lists(
    st.tuples(
        st.sampled_from(["set", "insert", "delete"]), st.integers(0, 10**6), st.integers(0, 255)
    ),
    min_size=1,
    max_size=4,
)


def mutate(body: bytes, mutations) -> bytes:
    data = bytearray(body)
    for kind, where, byte in mutations:
        at = where % (len(data) + 1)
        if kind == "set" and at < len(data):
            data[at] = byte
        elif kind == "insert":
            data.insert(at, byte)
        elif kind == "delete" and at < len(data):
            del data[at]
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(result=results(), mutations=_mutations)
def test_mutated_bodies_decode_to_frame_error_only(result, mutations):
    _valid_or_frame_error(mutate(encode_body(result), mutations))


def _section_offsets(body: bytes) -> list[int]:
    offsets, at = [], wire._BODY_HEADER.size
    while at < len(body):
        offsets.append(at)
        at += wire._SECTION.size + wire._SECTION.unpack_from(body, at)[1]
    return offsets


@pytest.mark.parametrize(
    "what, corrupt",
    [
        ("magic", lambda b: b"XXXX" + b[4:]),
        ("version", lambda b: b[:4] + struct.pack("<H", 2) + b[6:]),
        ("section count", lambda b: b[:6] + struct.pack("<H", 8) + b[8:]),
        ("row count", lambda b: b[:8] + struct.pack("<I", 4) + b[12:]),
        ("truncated", lambda b: b[:-1]),
        ("trailing", lambda b: b + b"\x00"),
    ],
)
def test_each_header_check_refuses(what, corrupt):
    with pytest.raises(FrameError):
        decode_body(corrupt(encode_body(a_result())))


def test_unknown_version_dtype_offsets_indexes_and_utf8_are_refused():
    body = encode_body(a_result())
    sizes, ends, text, index, sid, scores, present = _section_offsets(body)

    def patched(at: int, data: bytes) -> bytes:
        return body[:at] + data + body[at + len(data) :]

    header = wire._SECTION.size
    cases = {
        "unknown version": patched(4, struct.pack("<H", 99)),
        "dtype code": patched(scores, bytes([1])),  # scores must be float64
        "unknown dtype code": patched(present, bytes([200])),
        "offsets not monotonic": patched(ends + header, bytes([200])),
        "index outside its table": patched(index + header, bytes([250])),
        "not utf-8": patched(text + header, b"\xff"),
        "presence not boolean": patched(present + header, bytes([7])),
    }
    for what, corrupt in cases.items():
        with pytest.raises(FrameError):
            decode_body(corrupt)
        assert decode_body(body) == a_result(), what


class ScriptedServer:
    """A raw TCP peer answering each request with ``envelope ‖ next body``."""

    def __init__(self) -> None:
        self.bodies: list[bytes] = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._answer, args=(conn,), daemon=True).start()

    def _answer(self, conn) -> None:
        with conn, conn.makefile("rb") as stream:
            while True:
                header = stream.read(FRAME_HEADER.size)
                if len(header) < FRAME_HEADER.size:
                    return
                request = decode_message(stream.read(FRAME_HEADER.unpack(header)[0]))
                response = RpcResponse(request_id=request.request_id, server_ms=0.1)
                conn.sendall(frame_message(encode_message(response, self.bodies.pop(0))))

    def close(self) -> None:
        self.listener.close()


@pytest.fixture(scope="module")
def scripted():
    """One scripted server, a blocking client and an asyncio client of it."""
    server = ScriptedServer()
    loop = asyncio.new_event_loop()
    blocking = RpcClient(*server.address, timeout=5.0)
    asynchronous = loop.run_until_complete(AsyncRpcClient.connect(*server.address))
    try:
        yield server, blocking, lambda coro: loop.run_until_complete(coro), asynchronous
    finally:
        blocking.close()
        loop.run_until_complete(asynchronous.close())
        loop.close()
        server.close()


def _through_both_clients(scripted, body: bytes) -> None:
    server, blocking, run, asynchronous = scripted
    for ask in (
        lambda: blocking.query("q"),
        lambda: run(asynchronous.query("q")),
    ):
        server.bodies.append(body)
        try:
            answer = ask()
        except FrameError:
            continue
        list(answer)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(junk=st.binary(max_size=120), mutations=_mutations)
def test_both_clients_raise_only_frame_error_on_a_bad_body(scripted, junk, mutations):
    _through_both_clients(scripted, junk)
    _through_both_clients(scripted, mutate(encode_body(a_result()), mutations))


def test_both_clients_read_a_good_body(scripted):
    server, blocking, run, asynchronous = scripted
    server.bodies += [encode_body(a_result())] * 2
    assert exact(blocking.query("q")) == exact(a_result())
    assert exact(run(asynchronous.query("q"))) == exact(a_result())


# ----------------------------------------------------------------------
# tuple identity end to end, over random corpora with removes
# ----------------------------------------------------------------------
QUERIES = [
    (ENTITY_QUERY, {}),
    (SCORED_QUERY, {}),
    (SCORED_QUERY, {"keep_all_scores": True}),
    (CITY_QUERY, {"threshold_override": 0.0, "keep_all_scores": True}),
    (EMPTY_QUERY, {}),
    (NO_OUTPUT_QUERY, {"keep_all_scores": True}),
]

_scripts = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, len(TEXTS) - 1)),
    min_size=1,
    max_size=10,
)


@pytest.mark.timeout(120)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(script=_scripts, shards=st.sampled_from([1, 4]))
def test_in_process_and_both_clients_match_a_reference_engine(listen_ready, script, shards):
    with KokoService(shards=shards, trace_sample_rate=0.0) as service:
        live = {}
        for action, n in script:
            doc_id = f"doc{n}"
            if action == "add" and doc_id not in live:
                live[doc_id] = service.add_document(TEXTS[n], doc_id)
            elif action == "remove" and doc_id in live:
                service.remove_document(doc_id)
                del live[doc_id]
        reference = KokoEngine(Corpus(name="reference", documents=list(live.values())))
        with RpcServer(service) as server:
            address = listen_ready(*server.address)

            async def ask_async(query, kwargs):
                async with await AsyncRpcClient.connect(*address) as client:
                    return [await client.query(query, **kwargs) for _ in range(2)]

            with RpcClient(*address) as client:
                for query, kwargs in QUERIES:
                    expected = exact(reference.execute(query, **kwargs))
                    assert exact(service.query(query, **kwargs)) == expected
                    for _ in range(2):  # a miss, then (string queries) a hit
                        assert exact(client.query(query, **kwargs)) == expected
                    for answer in asyncio.run(ask_async(query, kwargs)):
                        assert exact(answer) == expected
