"""A payload-mode sender reads every symbol from the encoder it is given.

``SenderCore(encoder=)`` is the core's one input path for object bytes: the
simulator's agent builds one encoder per session, a server hands every
session of one object the store's shared encoder.  Sessions sharing an
encoder emit exactly the bytes they would emit from their own.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import PolyraptorConfig
from repro.core.packets import PullPayload
from repro.protocol.actions import SendPacket
from repro.protocol.sender import SenderCore
from repro.rq.backend import CodecContext
from repro.rq.block import ObjectEncoder

CONFIG = PolyraptorConfig(carry_payload=True, symbol_size_bytes=64, max_symbols_per_block=16)
DATA = bytes((7 * i) % 251 for i in range(64 * 40 + 5))  # not a multiple of T


def _encoder(data=DATA, config=CONFIG):
    return ObjectEncoder(data, symbol_size=config.symbol_size_bytes,
                         max_symbols_per_block=config.max_symbols_per_block,
                         context=CodecContext())


def _sender(encoder, object_bytes=len(DATA), sender_index=0, num_senders=1, config=CONFIG):
    return SenderCore(config=config, session_id=1, object_bytes=object_bytes,
                      receiver_host_ids=[2], local_host=0, sender_index=sender_index,
                      num_senders=num_senders, encoder=encoder)


def _emitted(core, pulls):
    """(block, esi, data) of the initial window plus ``pulls`` pulled symbols."""
    core.start(0.0)
    for sequence in range(pulls):
        core.on_pull(PullPayload(session_id=1, receiver_host=2, pull_sequence=sequence), 0.0)
    return [(a.payload.block_number, a.payload.esi, a.payload.data)
            for a in core.poll_actions() if isinstance(a, SendPacket)]


def test_payload_mode_requires_an_encoder():
    with pytest.raises(ValueError, match="requires an object encoder"):
        _sender(None)


@pytest.mark.parametrize("encoder", [
    _encoder(DATA + b"x"),
    _encoder(config=dataclasses.replace(CONFIG, symbol_size_bytes=32)),
], ids=["length", "symbol size"])
def test_an_encoder_of_another_shape_is_refused(encoder):
    with pytest.raises(ValueError, match="does not match"):
        _sender(encoder)


def test_identity_mode_ignores_the_encoder():
    core = _sender(_encoder(), config=dataclasses.replace(CONFIG, carry_payload=False))
    assert all(data is None for _, _, data in _emitted(core, 5))


@pytest.mark.parametrize("num_senders", [1, 3])
def test_sessions_sharing_an_encoder_emit_their_own_encoders_bytes(num_senders):
    shared = _encoder()
    for _ in range(2):  # a second fetch re-reads the shared encoder's memo
        for index in range(num_senders):
            got = _emitted(_sender(shared, sender_index=index, num_senders=num_senders), 60)
            alone = _emitted(_sender(_encoder(), sender_index=index,
                                     num_senders=num_senders), 60)
            assert got == alone
            assert any(esi >= shared.oti.block_symbol_count(block) for block, esi, _ in got)
