"""The wire parser under arbitrary bytes: every datagram off a socket is
untrusted, so decoding is total and the server keeps nothing from junk."""

import asyncio

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.packets import (  # noqa: E402
    DoneAckPayload,
    DonePayload,
    PullPayload,
    RequestPayload,
    SymbolPayload,
)
from repro.net.server import ObjectStore, PolyraptorServerProtocol  # noqa: E402
from repro.net.wire import (  # noqa: E402
    MAGIC,
    WIRE_VERSION,
    OpenErrPayload,
    OpenOkPayload,
    OpenPayload,
    WireError,
    WireFrame,
    decode_frame,
    encode_frame,
)

U8 = st.integers(0, 2**8 - 1)
U32 = st.integers(0, 2**32 - 1)
U64 = st.integers(0, 2**64 - 1)
TEXT = st.text(max_size=40)

PAYLOADS = st.one_of(
    st.builds(SymbolPayload, session_id=U64, sender_host=U32, block_number=U32, esi=U32,
              block_symbol_count=U32, num_blocks=U32, object_bytes=U64,
              data=st.none() | st.binary(max_size=64), sequence=U32),
    st.builds(PullPayload, session_id=U64, receiver_host=U32, pull_sequence=U32,
              block_hint=st.none() | st.integers(0, 2**31 - 1)),
    st.builds(RequestPayload, session_id=U64, receiver_host=U32, object_bytes=U64,
              sender_index=U32, num_senders=U32),
    st.builds(DonePayload, session_id=U64, receiver_host=U32),
    st.builds(DoneAckPayload, session_id=U64, sender_host=U32),
    st.builds(OpenPayload, object_name=TEXT, symbol_size=U32),
    st.builds(OpenOkPayload, session_id=U64, object_bytes=U64, symbol_size=U32),
    st.builds(OpenErrPayload, reason=TEXT, code=U8),
)

WIRE_PAYLOAD_TYPES = (SymbolPayload, PullPayload, RequestPayload, DonePayload,
                      DoneAckPayload, OpenPayload, OpenOkPayload, OpenErrPayload)
FRAMES = PAYLOADS.map(encode_frame)

#: Byte strings a peer could send: noise, noise behind a current header (so
#: every body parser runs), and real frames cut short or run long.
DATAGRAMS = st.one_of(
    st.binary(max_size=128),
    st.builds(lambda frame_type, body: MAGIC + bytes([WIRE_VERSION, frame_type]) + body,
              U8, st.binary(max_size=128)),
    st.builds(lambda frame, cut: frame[:cut % len(frame)], FRAMES, st.integers(0)),
    st.builds(lambda frame, extra: frame + extra, FRAMES, st.binary(min_size=1, max_size=8)),
)


@settings(max_examples=200, deadline=None)
@given(DATAGRAMS)
def test_any_bytes_decode_to_a_frame_or_raise_wire_error(data):
    try:
        frame = decode_frame(data)
    except WireError:
        return
    assert isinstance(frame, WireFrame)
    assert isinstance(frame.payload, WIRE_PAYLOAD_TYPES)


@settings(max_examples=200, deadline=None)
@given(PAYLOADS)
def test_every_frame_type_round_trips(payload):
    assert decode_frame(encode_frame(payload)).payload == payload


class _NullTransport:
    def sendto(self, data, addr=None):
        raise AssertionError("the server answered junk")


@settings(max_examples=100, deadline=None)
@given(DATAGRAMS)
def test_the_server_counts_junk_and_keeps_nothing(data):
    try:
        decode_frame(data)
    except WireError:
        pass
    else:
        assume(False)  # a well-formed frame is not junk

    async def scenario():
        store = ObjectStore()
        store.put("x", b"payload")
        server = PolyraptorServerProtocol(store)
        server.connection_made(_NullTransport())
        server.datagram_received(data, ("127.0.0.1", 40000))
        server.connection_lost(None)
        return server

    server = asyncio.run(scenario())
    assert server.registry.snapshot() == {"net.server.malformed_frames": 1}
    assert (server._grants, server._grant_info, server._sessions) == ({}, {}, {})
