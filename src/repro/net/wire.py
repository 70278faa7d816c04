"""Versioned wire framing for Polyraptor over UDP.

One datagram carries one frame::

    +-------+---------+------+------------------------+
    | magic | version | type | type-specific body     |
    | 2 B   | 1 B     | 1 B  | struct-packed + tail   |
    +-------+---------+------+------------------------+

The five protocol payloads of :mod:`repro.core.packets` are encoded
verbatim (same fields, no reinterpretation), plus three session-setup
frames for the name-to-session handshake a real network needs (the sim
hands out session ids out of band):

* ``OPEN``      -- client asks for an object by name, proposing the
  largest symbol payload its path MTU admits (0 = no preference);
* ``OPEN_OK``   -- server grants a session id, reveals the object size and
  fixes the session's symbol size (never larger than the proposal);
* ``OPEN_ERR``  -- server refuses, with a machine-readable code
  (unknown object, busy, unusable symbol size) and a reason string.

Symbol frames additionally carry the sender's monotonic emission timestamp
(``sent_at``), the wire twin of the simulator's ``Packet.created_at``.

Every decoder is total: malformed input of any kind raises
:class:`WireError`, never an unhandled struct/index error, so a server
can sit on a public port without crashing on junk datagrams.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.packets import (
    DoneAckPayload,
    DonePayload,
    PullPayload,
    RequestPayload,
    SymbolPayload,
)

#: First bytes of every frame.
MAGIC = b"PQ"
#: Bumped on any incompatible framing change; decoders reject other versions.
#: Version 2 added symbol-size negotiation to OPEN/OPEN_OK and the refusal
#: code to OPEN_ERR; version 3 dropped the PULL frame's congestion echo.
WIRE_VERSION = 3

_HEADER = struct.Struct("!2sBB")

TYPE_SYMBOL = 1
TYPE_PULL = 2
TYPE_REQUEST = 3
TYPE_DONE = 4
TYPE_DONE_ACK = 5
TYPE_OPEN = 6
TYPE_OPEN_OK = 7
TYPE_OPEN_ERR = 8

_SYMBOL = struct.Struct("!QIIIIIQIdBI")  # ... sent_at(d), flags(B), data length(I); data = tail
_PULL = struct.Struct("!QIIid")  # block_hint: -1 encodes None
_REQUEST = struct.Struct("!QIQII")
_DONE = struct.Struct("!QI")
_DONE_ACK = struct.Struct("!QI")
_OPEN = struct.Struct("!IH")  # proposed symbol size, name length; name = tail
_OPEN_OK = struct.Struct("!QQI")  # session id, object bytes, granted symbol size
_OPEN_ERR = struct.Struct("!BH")  # refusal code, reason length; reason = tail

_FLAG_HAS_DATA = 0x01

#: OPEN_ERR refusal codes.
OPEN_ERR_UNKNOWN_OBJECT = 1
OPEN_ERR_BUSY = 2
OPEN_ERR_BAD_SYMBOL_SIZE = 3

#: IPv4 + UDP header bytes between the link MTU and the datagram payload.
UDP_IPV4_OVERHEAD = 28

#: Frame bytes around a symbol's data tail (frame header + symbol body).
SYMBOL_FRAME_OVERHEAD = _HEADER.size + _SYMBOL.size


def max_symbol_size_for_mtu(mtu: int) -> int:
    """The largest symbol payload whose DATA frame fits one ``mtu`` datagram.

    Accounts for the IPv4/UDP headers and the symbol frame's own framing;
    the result can be zero or negative for absurdly small MTUs, which
    callers must reject.
    """
    return mtu - UDP_IPV4_OVERHEAD - SYMBOL_FRAME_OVERHEAD


class WireError(ValueError):
    """A frame could not be decoded (truncated, junk, or wrong version)."""


@dataclass(frozen=True)
class OpenPayload:
    """Client -> server: open a transfer session for a named object.

    ``symbol_size`` is the largest symbol payload the client's path MTU
    admits (0 = no preference; the server grants its own default).
    """

    object_name: str
    symbol_size: int = 0


@dataclass(frozen=True)
class OpenOkPayload:
    """Server -> client: the granted session id, object size and symbol size.

    The granted ``symbol_size`` is final for the session: the receiver must
    partition the object with it, and it is never larger than the client's
    proposal (when one was made).
    """

    session_id: int
    object_bytes: int
    symbol_size: int = 0


@dataclass(frozen=True)
class OpenErrPayload:
    """Server -> client: the open was refused.

    ``code`` is machine-readable (:data:`OPEN_ERR_UNKNOWN_OBJECT`,
    :data:`OPEN_ERR_BUSY`, :data:`OPEN_ERR_BAD_SYMBOL_SIZE`); ``reason``
    is the human-readable explanation.
    """

    reason: str
    code: int = OPEN_ERR_UNKNOWN_OBJECT


WirePayload = Union[
    SymbolPayload,
    PullPayload,
    RequestPayload,
    DonePayload,
    DoneAckPayload,
    OpenPayload,
    OpenOkPayload,
    OpenErrPayload,
]


@dataclass(frozen=True)
class WireFrame:
    """One decoded frame: the protocol payload plus frame-level metadata."""

    payload: WirePayload
    #: sender's monotonic emission time (symbol frames only; 0.0 otherwise)
    sent_at: float = 0.0


def encode_frame(payload: WirePayload, sent_at: float = 0.0) -> bytes:
    """Encode one protocol payload into a datagram."""
    if isinstance(payload, SymbolPayload):
        flags = _FLAG_HAS_DATA if payload.data is not None else 0
        tail = payload.data if payload.data is not None else b""
        body = _SYMBOL.pack(
            payload.session_id,
            payload.sender_host,
            payload.block_number,
            payload.esi,
            payload.block_symbol_count,
            payload.num_blocks,
            payload.object_bytes,
            payload.sequence,
            sent_at,
            flags,
            len(tail),
        )
        return _header(TYPE_SYMBOL) + body + tail
    if isinstance(payload, PullPayload):
        hint = -1 if payload.block_hint is None else payload.block_hint
        return _header(TYPE_PULL) + _PULL.pack(
            payload.session_id,
            payload.receiver_host,
            payload.pull_sequence,
            hint,
            payload.loss_estimate,
        )
    if isinstance(payload, RequestPayload):
        return _header(TYPE_REQUEST) + _REQUEST.pack(
            payload.session_id,
            payload.receiver_host,
            payload.object_bytes,
            payload.sender_index,
            payload.num_senders,
        )
    if isinstance(payload, DonePayload):
        return _header(TYPE_DONE) + _DONE.pack(payload.session_id, payload.receiver_host)
    if isinstance(payload, DoneAckPayload):
        return _header(TYPE_DONE_ACK) + _DONE_ACK.pack(
            payload.session_id, payload.sender_host
        )
    if isinstance(payload, OpenPayload):
        name = payload.object_name.encode("utf-8")
        return _header(TYPE_OPEN) + _OPEN.pack(payload.symbol_size, len(name)) + name
    if isinstance(payload, OpenOkPayload):
        return _header(TYPE_OPEN_OK) + _OPEN_OK.pack(
            payload.session_id, payload.object_bytes, payload.symbol_size
        )
    if isinstance(payload, OpenErrPayload):
        reason = payload.reason.encode("utf-8")
        return _header(TYPE_OPEN_ERR) + _OPEN_ERR.pack(
            payload.code, len(reason)
        ) + reason
    raise WireError(f"cannot encode payload of type {type(payload).__name__}")


def decode_frame(data: bytes) -> WireFrame:
    """Decode one datagram into a :class:`WireFrame`.

    Raises:
        WireError: on anything that is not a well-formed frame of the
            current :data:`WIRE_VERSION`.
    """
    if len(data) < _HEADER.size:
        raise WireError(f"frame too short ({len(data)} bytes)")
    magic, version, frame_type = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version}")
    body = data[_HEADER.size:]
    try:
        return _decode_body(frame_type, body)
    except (struct.error, UnicodeDecodeError) as exc:
        raise WireError(f"malformed frame body (type {frame_type}): {exc}") from exc


def _decode_body(frame_type: int, body: bytes) -> WireFrame:
    if frame_type == TYPE_SYMBOL:
        fields = _SYMBOL.unpack_from(body)
        (session_id, sender_host, block, esi, k, num_blocks,
         object_bytes, sequence, sent_at, flags, data_len) = fields
        tail = body[_SYMBOL.size:]
        data: Optional[bytes] = None
        if flags & _FLAG_HAS_DATA:
            # The declared length makes truncated symbol payloads detectable
            # (the tail would otherwise silently absorb any cut).
            if len(tail) != data_len:
                raise WireError(
                    f"symbol data is {len(tail)} bytes, expected {data_len}"
                )
            data = bytes(tail)
        elif tail:
            raise WireError("dataless symbol frame has trailing bytes")
        return WireFrame(
            SymbolPayload(
                session_id=session_id,
                sender_host=sender_host,
                block_number=block,
                esi=esi,
                block_symbol_count=k,
                num_blocks=num_blocks,
                object_bytes=object_bytes,
                data=data,
                sequence=sequence,
            ),
            sent_at=sent_at,
        )
    if frame_type == TYPE_PULL:
        session_id, receiver_host, pull_sequence, hint, loss = _require_exact(
            _PULL, body
        )
        return WireFrame(
            PullPayload(
                session_id=session_id,
                receiver_host=receiver_host,
                pull_sequence=pull_sequence,
                block_hint=None if hint < 0 else hint,
                loss_estimate=loss,
            )
        )
    if frame_type == TYPE_REQUEST:
        session_id, receiver_host, object_bytes, index, num = _require_exact(
            _REQUEST, body
        )
        return WireFrame(
            RequestPayload(
                session_id=session_id,
                receiver_host=receiver_host,
                object_bytes=object_bytes,
                sender_index=index,
                num_senders=num,
            )
        )
    if frame_type == TYPE_DONE:
        session_id, receiver_host = _require_exact(_DONE, body)
        return WireFrame(DonePayload(session_id=session_id, receiver_host=receiver_host))
    if frame_type == TYPE_DONE_ACK:
        session_id, sender_host = _require_exact(_DONE_ACK, body)
        return WireFrame(DoneAckPayload(session_id=session_id, sender_host=sender_host))
    if frame_type == TYPE_OPEN:
        symbol_size, length = _OPEN.unpack_from(body)
        name = body[_OPEN.size:]
        if len(name) != length:
            raise WireError("OPEN name length mismatch")
        return WireFrame(
            OpenPayload(object_name=name.decode("utf-8"), symbol_size=symbol_size)
        )
    if frame_type == TYPE_OPEN_OK:
        session_id, object_bytes, symbol_size = _require_exact(_OPEN_OK, body)
        return WireFrame(
            OpenOkPayload(
                session_id=session_id,
                object_bytes=object_bytes,
                symbol_size=symbol_size,
            )
        )
    if frame_type == TYPE_OPEN_ERR:
        code, length = _OPEN_ERR.unpack_from(body)
        reason = body[_OPEN_ERR.size:]
        if len(reason) != length:
            raise WireError("OPEN_ERR reason length mismatch")
        return WireFrame(OpenErrPayload(reason=reason.decode("utf-8"), code=code))
    raise WireError(f"unknown frame type {frame_type}")


def _header(frame_type: int) -> bytes:
    return _HEADER.pack(MAGIC, WIRE_VERSION, frame_type)


def _require_exact(layout: struct.Struct, body: bytes) -> tuple:
    if len(body) != layout.size:
        raise WireError(
            f"frame body is {len(body)} bytes, expected {layout.size}"
        )
    return layout.unpack(body)
