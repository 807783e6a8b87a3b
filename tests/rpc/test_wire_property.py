"""Property tests: RPC payloads survive encode→frame→decode byte-identically.

Hypothesis generates adversarial request/response shapes — nested args,
unicode ops, extreme request ids, the ``client_id`` and ``deadline``
headers — and asserts the frame round-trip is the identity, and that
re-encoding the decoded message reproduces the *exact* wire bytes (so
a proxy or a journal can replay frames without semantic drift).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FRAME_HEADER, frame_message
from repro.rpc.wire import (
    FrameError,
    RpcFault,
    RpcRequest,
    RpcResponse,
    TraceContext,
    decode_message,
    encode_message,
)

# JSON-ish payload values, closed under nesting; floats exclude NaN
# (NaN != NaN would fail equality without the payload being wrong).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=True),
    st.text(max_size=40),
    st.binary(max_size=40),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=20,
)

_hex = "0123456789abcdef"
_trace_contexts = st.builds(
    TraceContext,
    trace_id=st.text(alphabet=_hex, min_size=1, max_size=16),
    span_id=st.text(alphabet=_hex, min_size=1, max_size=8),
    sampled=st.booleans(),
)

_requests = st.builds(
    RpcRequest,
    op=st.text(min_size=1, max_size=30),
    args=st.dictionaries(st.text(max_size=15), _values, max_size=5),
    request_id=st.integers(min_value=0, max_value=2**62),
    client_id=st.one_of(st.none(), st.text(max_size=30)),
    deadline=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    ),
    trace=st.one_of(st.none(), _trace_contexts),
)

_faults = st.builds(
    RpcFault, code=st.text(min_size=1, max_size=20), message=st.text(max_size=80)
)

_responses = st.builds(
    RpcResponse,
    request_id=st.integers(min_value=0, max_value=2**62),
    value=_values,
    fault=st.one_of(st.none(), _faults),
    server_ms=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
    ),
)


def unframe(frame: bytes) -> bytes:
    """Split one wire frame back into its payload, validating the header."""
    (length,) = FRAME_HEADER.unpack(frame[: FRAME_HEADER.size])
    payload = frame[FRAME_HEADER.size :]
    assert length == len(payload)
    return payload


@settings(max_examples=200, deadline=None)
@given(message=st.one_of(_requests, _responses))
def test_messages_survive_the_frame_round_trip_byte_identically(message):
    wire = frame_message(encode_message(message))
    decoded = decode_message(unframe(wire))
    assert decoded == message
    assert type(decoded) is type(message)
    # the round trip is byte-stable: a replayed frame is the same frame
    assert frame_message(encode_message(decoded)) == wire


@settings(max_examples=100, deadline=None)
@given(request=_requests)
def test_headers_survive_the_round_trip_exactly(request):
    decoded = decode_message(encode_message(request))
    assert decoded.request_id == request.request_id
    assert decoded.client_id == request.client_id
    assert decoded.deadline == request.deadline
    assert decoded.op == request.op and decoded.args == request.args
    assert decoded.trace == request.trace
    if request.trace is not None:
        # the propagation header arrives intact AND typed: the server
        # continues this exact trace under this exact parent span
        assert isinstance(decoded.trace, TraceContext)
        assert decoded.trace.trace_id == request.trace.trace_id
        assert decoded.trace.span_id == request.trace.span_id
        assert decoded.trace.sampled is request.trace.sampled


@settings(max_examples=50, deadline=None)
@given(junk=st.binary(min_size=1, max_size=64))
def test_undecodable_payloads_raise_frame_error_not_random_exceptions(junk):
    try:
        decoded = decode_message(junk)
    except FrameError:
        return  # the typed failure the server maps to garbage_frame
    # some byte strings ARE valid pickles; those must decode to a value,
    # not to a partially-constructed protocol object
    assert not isinstance(decoded, (RpcRequest, RpcResponse))
