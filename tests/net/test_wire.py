"""Wire framing: round-trips for every frame type, rejection of everything else."""

import struct

import pytest

from repro.core.packets import (
    DoneAckPayload,
    DonePayload,
    PullPayload,
    RequestPayload,
    SymbolPayload,
)
from repro.net.wire import (
    MAGIC,
    OPEN_ERR_BUSY,
    OPEN_ERR_UNKNOWN_OBJECT,
    UDP_IPV4_OVERHEAD,
    WIRE_VERSION,
    OpenErrPayload,
    OpenOkPayload,
    OpenPayload,
    WireError,
    decode_frame,
    encode_frame,
    max_symbol_size_for_mtu,
)

ALL_PAYLOADS = [
    SymbolPayload(
        session_id=7, sender_host=3, block_number=1, esi=42,
        block_symbol_count=30, num_blocks=2, object_bytes=123456,
        data=b"\x01\x02\x03payload", sequence=9,
    ),
    SymbolPayload(
        session_id=7, sender_host=3, block_number=0, esi=0,
        block_symbol_count=1, num_blocks=1, object_bytes=1,
        data=None, sequence=1,
    ),
    PullPayload(session_id=7, receiver_host=5, pull_sequence=12, block_hint=3),
    PullPayload(session_id=7, receiver_host=5, pull_sequence=1, block_hint=None),
    RequestPayload(session_id=7, receiver_host=5, object_bytes=4_000_000,
                   sender_index=1, num_senders=3),
    DonePayload(session_id=7, receiver_host=5),
    DoneAckPayload(session_id=7, sender_host=3),
    OpenPayload(object_name="objects/dataset-β.bin"),
    OpenPayload(object_name="mtu-capped", symbol_size=1200),
    OpenOkPayload(session_id=99, object_bytes=2**40),
    OpenOkPayload(session_id=99, object_bytes=2**40, symbol_size=512),
    OpenErrPayload(reason="unknown object 'x'"),
    OpenErrPayload(reason="busy: 4 of 4 sessions in use", code=OPEN_ERR_BUSY),
]


PAYLOAD_IDS = [f"{type(p).__name__}-{i}" for i, p in enumerate(ALL_PAYLOADS)]


@pytest.mark.parametrize("payload", ALL_PAYLOADS, ids=PAYLOAD_IDS)
def test_round_trip_preserves_every_field(payload):
    frame = decode_frame(encode_frame(payload))
    assert frame.payload == payload


def test_symbol_sent_at_survives_the_round_trip():
    symbol = ALL_PAYLOADS[0]
    frame = decode_frame(encode_frame(symbol, sent_at=123.456789))
    assert frame.sent_at == 123.456789
    assert decode_frame(encode_frame(symbol)).sent_at == 0.0


def test_empty_symbol_data_is_distinct_from_none():
    symbol = SymbolPayload(
        session_id=1, sender_host=1, block_number=0, esi=0,
        block_symbol_count=1, num_blocks=1, object_bytes=1,
        data=b"", sequence=1,
    )
    assert decode_frame(encode_frame(symbol)).payload.data == b""


def test_bad_magic_rejected():
    frame = bytearray(encode_frame(DonePayload(session_id=1, receiver_host=2)))
    frame[0:2] = b"XX"
    with pytest.raises(WireError, match="magic"):
        decode_frame(bytes(frame))


@pytest.mark.parametrize("version", [1, 2, 3, WIRE_VERSION + 1])
def test_unsupported_version_rejected(version):
    frame = bytearray(encode_frame(DonePayload(session_id=1, receiver_host=2)))
    assert frame[2] == WIRE_VERSION
    frame[2] = version
    with pytest.raises(WireError, match="version"):
        decode_frame(bytes(frame))


def test_version_2_pull_with_congestion_echo_is_rejected():
    """A pull in the old layout, with its congestion-echo word between the
    block hint and the loss estimate, is refused rather than misread."""
    old_pull = MAGIC + bytes([2, 2]) + struct.pack("!QIIiId", 7, 5, 12, 3, 4, 0.125)
    with pytest.raises(WireError, match="version"):
        decode_frame(old_pull)


def test_pull_frame_layout():
    """Version-4 header, session id, receiver, pull sequence and block hint
    (-1 for none): 24 bytes, and nothing else."""
    pull = PullPayload(session_id=7, receiver_host=5, pull_sequence=12, block_hint=None)
    frame = encode_frame(pull)
    assert frame == MAGIC + bytes([4, 2]) + struct.pack("!QIIi", 7, 5, 12, -1)
    assert len(frame) == 24


NON_SYMBOL = [(p, i) for p, i in zip(ALL_PAYLOADS, PAYLOAD_IDS)
              if not isinstance(p, SymbolPayload)]


@pytest.mark.parametrize("payload", [p for p, _ in NON_SYMBOL],
                         ids=[i for _, i in NON_SYMBOL])
def test_only_symbol_frames_carry_sent_at(payload):
    frame = encode_frame(payload, sent_at=5.0)
    assert frame == encode_frame(payload)
    assert decode_frame(frame).sent_at == 0.0


def test_unknown_frame_type_rejected():
    frame = bytearray(encode_frame(DonePayload(session_id=1, receiver_host=2)))
    frame[3] = 200
    with pytest.raises(WireError, match="unknown frame type"):
        decode_frame(bytes(frame))


@pytest.mark.parametrize("payload", ALL_PAYLOADS, ids=PAYLOAD_IDS)
def test_every_truncation_rejected_not_crashing(payload):
    """Cutting a valid frame at any point must raise WireError, never leak
    struct/index errors -- the server sits on an open port."""
    frame = encode_frame(payload)
    for cut in range(len(frame)):
        with pytest.raises(WireError):
            decode_frame(frame[:cut])


def test_trailing_garbage_rejected():
    done = encode_frame(DonePayload(session_id=1, receiver_host=2))
    with pytest.raises(WireError):
        decode_frame(done + b"\x00")
    dataless = encode_frame(SymbolPayload(
        session_id=1, sender_host=1, block_number=0, esi=0,
        block_symbol_count=1, num_blocks=1, object_bytes=1,
        data=None, sequence=1,
    ))
    with pytest.raises(WireError, match="trailing"):
        decode_frame(dataless + b"junk")


def test_open_name_length_mismatch_rejected():
    frame = bytearray(encode_frame(OpenPayload(object_name="abc")))
    frame[-1:] = b""  # shorten the name below the declared length
    with pytest.raises(WireError):
        decode_frame(bytes(frame))


def test_junk_datagrams_rejected():
    for junk in (b"", b"\x00", b"hello world", MAGIC, bytes(1000)):
        with pytest.raises(WireError):
            decode_frame(junk)


def test_invalid_utf8_name_rejected():
    frame = bytearray(encode_frame(OpenPayload(object_name="ab")))
    frame[-2:] = b"\xff\xfe"
    with pytest.raises(WireError):
        decode_frame(bytes(frame))


def test_unencodable_payload_rejected():
    with pytest.raises(WireError, match="cannot encode"):
        encode_frame(object())


def test_handshake_defaults_keep_the_fields_optional():
    """symbol_size=0 means 'no preference' / 'server default' and code
    defaults to the historical unknown-object refusal."""
    assert decode_frame(encode_frame(OpenPayload(object_name="x"))).payload.symbol_size == 0
    assert decode_frame(
        encode_frame(OpenOkPayload(session_id=1, object_bytes=2))
    ).payload.symbol_size == 0
    assert decode_frame(
        encode_frame(OpenErrPayload(reason="nope"))
    ).payload.code == OPEN_ERR_UNKNOWN_OBJECT


@pytest.mark.parametrize("mtu", [576, 1280, 1500, 9000])
def test_max_symbol_size_for_mtu_frames_actually_fit(mtu):
    """A full symbol frame at the derived size, plus UDP/IPv4 headers, must
    fit the MTU exactly at the limit -- that is the whole point of the bound."""
    size = max_symbol_size_for_mtu(mtu)
    assert size > 0
    symbol = SymbolPayload(
        session_id=1, sender_host=0, block_number=0, esi=0,
        block_symbol_count=1, num_blocks=1, object_bytes=size,
        data=bytes(size), sequence=1,
    )
    datagram = encode_frame(symbol, sent_at=123.456)
    assert len(datagram) + UDP_IPV4_OVERHEAD == mtu
    # One more payload byte would overflow the MTU.
    bigger = SymbolPayload(
        session_id=1, sender_host=0, block_number=0, esi=0,
        block_symbol_count=1, num_blocks=1, object_bytes=size + 1,
        data=bytes(size + 1), sequence=1,
    )
    assert len(encode_frame(bigger, sent_at=123.456)) + UDP_IPV4_OVERHEAD == mtu + 1
