"""Unit coverage for ReceiverCore's public completion surface: the DONE
handshake and the decode-failure keep-pulling path."""

import hashlib

from repro.core.config import PolyraptorConfig
from repro.core.packets import DoneAckPayload, SymbolPayload
from repro.protocol.actions import EnqueuePull, SessionCompleted
from repro.protocol.receiver import ReceiverCore
from repro.rq.block import ObjectEncoder


def _core(expected_senders):
    return ReceiverCore(
        config=PolyraptorConfig(),
        session_id=7,
        object_bytes=1408 * 10,
        local_host=1,
        expected_senders=expected_senders,
    )


def _ack(sender):
    return DoneAckPayload(session_id=7, sender_host=sender)


def test_done_fully_acked_requires_every_expected_sender():
    core = _core([0, 2, 4])
    assert not core.done_fully_acked
    core.on_done_ack(_ack(0))
    core.on_done_ack(_ack(2))
    assert not core.done_fully_acked
    core.on_done_ack(_ack(4))
    assert core.done_fully_acked


def test_duplicate_acks_are_idempotent():
    core = _core([0])
    core.on_done_ack(_ack(0))
    core.on_done_ack(_ack(0))
    assert core.done_fully_acked


def test_senders_discovered_mid_transfer_must_also_ack():
    """A sender that showed up via symbols (multicast, repair peers) joins
    the handshake even when it was never in expected_senders."""
    core = _core([0])
    core.on_symbol(
        SymbolPayload(
            session_id=7, sender_host=6, block_number=0, esi=0,
            block_symbol_count=10, num_blocks=1, object_bytes=1408 * 10,
            data=None, sequence=1,
        ),
        trimmed=False,
        now=0.001,
    )
    core.on_done_ack(_ack(0))
    assert not core.done_fully_acked
    core.on_done_ack(_ack(6))
    assert core.done_fully_acked


def test_rank_deficient_window_keeps_pulling_until_the_decode_succeeds():
    """K + overhead symbols usually decode, but not always: for K=6 the
    repair window ESIs 40..47 is rank-deficient.  The core must treat the
    typed ``DecodeFailure`` as "not done yet" -- no completion, more pulls --
    and complete with the exact bytes once one more symbol arrives."""
    payload = bytes((7 + i * 131) % 251 for i in range(96))
    config = PolyraptorConfig(
        carry_payload=True, symbol_size_bytes=16, max_symbols_per_block=8
    )
    encoder = ObjectEncoder(payload, symbol_size=16, max_symbols_per_block=8)
    core = ReceiverCore(config=config, session_id=7, object_bytes=len(payload),
                        local_host=1, expected_senders=[0])
    assert core.oti.symbols_per_block == (6,)

    def deliver(esi, sequence):
        core.on_symbol(
            SymbolPayload(
                session_id=7, sender_host=0, block_number=0, esi=esi,
                block_symbol_count=6, num_blocks=1, object_bytes=len(payload),
                data=encoder.symbol(0, esi).data, sequence=sequence,
            ),
            trimmed=False,
            now=0.001 * sequence,
        )
        return core.poll_actions()

    for sequence, esi in enumerate(range(40, 47), start=1):
        deliver(esi, sequence)
    # The 8th symbol reaches K + DECODE_OVERHEAD_SYMBOLS and triggers the decode.
    actions = deliver(47, 8)
    assert not any(isinstance(a, SessionCompleted) for a in actions)
    assert any(isinstance(a, EnqueuePull) for a in actions)
    assert not core.completed and core.received_data is None

    actions = deliver(48, 9)
    assert core.completed
    assert isinstance(actions[-1], SessionCompleted)
    assert hashlib.sha256(core.received_data).digest() == hashlib.sha256(payload).digest()


def test_one_rank_deficient_block_leaves_every_other_block_complete():
    """A decode failure in block 0 must not un-complete blocks 1 and 2, which
    decoded fine: only block 0 goes back to pulling, and one more symbol for
    it finishes the session."""
    payload = bytes((11 + i * 97) % 251 for i in range(3 * 96))
    config = PolyraptorConfig(
        carry_payload=True, symbol_size_bytes=16, max_symbols_per_block=8
    )
    encoder = ObjectEncoder(payload, symbol_size=16, max_symbols_per_block=8)
    core = ReceiverCore(config=config, session_id=7, object_bytes=len(payload),
                        local_host=1, expected_senders=[0])
    assert core.oti.symbols_per_block == (6, 6, 6)
    sequence = 0

    def deliver(block, esi):
        nonlocal sequence
        sequence += 1
        core.on_symbol(
            SymbolPayload(
                session_id=7, sender_host=0, block_number=block, esi=esi,
                block_symbol_count=6, num_blocks=3, object_bytes=len(payload),
                data=encoder.symbol(block, esi).data, sequence=sequence,
            ),
            trimmed=False,
            now=0.001 * sequence,
        )
        return core.poll_actions()

    for esi in range(40, 48):  # the pinned rank-deficient window
        deliver(0, esi)
    for block in (1, 2):
        for esi in range(6):
            actions = deliver(block, esi)
    # The last symbol completed every block's count and triggered the decode.
    assert not core.completed
    assert any(isinstance(a, EnqueuePull) for a in actions)
    assert core.build_pull(0).block_hint == 0
    core.poll_actions()

    actions = deliver(0, 48)
    assert core.completed
    assert isinstance(actions[-1], SessionCompleted)
    assert core.received_data == payload
