"""Tests for Polyraptor configuration and packet payload types."""

import pytest

from repro.core.config import DECODE_OVERHEAD_SYMBOLS, HEADER_BYTES, PolyraptorConfig
from repro.core.packets import DonePayload, PullPayload, RequestPayload


class TestPolyraptorConfig:
    def test_defaults(self):
        config = PolyraptorConfig()
        assert config.symbol_packet_bytes == config.symbol_size_bytes + HEADER_BYTES
        assert DECODE_OVERHEAD_SYMBOLS == 2
        assert not config.carry_payload

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PolyraptorConfig(symbol_size_bytes=0)
        with pytest.raises(ValueError):
            PolyraptorConfig(initial_window_symbols=0)
        with pytest.raises(ValueError):
            PolyraptorConfig(stall_timeout_s=0)

    def test_frozen(self):
        config = PolyraptorConfig()
        with pytest.raises(AttributeError):
            config.symbol_size_bytes = 100


class TestPayloads:
    def test_pull_payload_fields(self):
        pull = PullPayload(session_id=1, receiver_host=5, pull_sequence=3, block_hint=0)
        assert pull.block_hint == 0
        assert pull.pull_sequence == 3

    def test_request_payload_fields(self):
        request = RequestPayload(session_id=1, receiver_host=2, object_bytes=1000,
                                 sender_index=1, num_senders=3)
        assert request.num_senders == 3

    def test_done_payload_fields(self):
        done = DonePayload(session_id=1, receiver_host=2)
        assert done.session_id == 1

    def test_payloads_hashable(self):
        # Frozen dataclasses can be used as dict keys / set members in traces.
        done_a = DonePayload(session_id=1, receiver_host=2)
        done_b = DonePayload(session_id=1, receiver_host=2)
        assert done_a == done_b
        assert len({done_a, done_b}) == 1
