"""The sender's initial window must be encoded through the batched path.

PR 1 made ``ObjectEncoder.symbol_block`` produce a whole run of symbols as
one symbol-plane pass; these tests pin down that ``SenderCore.start()``
uses it (instead of one encode call per symbol) and that the batched payloads
are byte-identical to the per-symbol path.
"""

from __future__ import annotations

import pytest

from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.runner import build_environment
from repro.network.topology import FatTreeTopology
from repro.rq.block import ObjectEncoder

PAYLOAD_CONFIG = ExperimentConfig(
    fattree_k=4,
    max_sim_time_s=10.0,
    polyraptor=PolyraptorConfig(carry_payload=True, initial_window_symbols=12),
)

OBJECT_BYTES = 48_000


def _start_session_and_capture(monkeypatch, config=PAYLOAD_CONFIG):
    """Start a payload push session and capture the packets start() emits."""
    topology = FatTreeTopology(config.fattree_k)
    env = build_environment(Protocol.POLYRAPTOR, config, topology=topology)
    agent = env.polyraptor_agents["h0"]
    payload = bytes(range(256)) * (OBJECT_BYTES // 256)
    sent = []
    monkeypatch.setattr(agent.host, "send", sent.append)
    agent.start_push_session(
        1, len(payload), [env.network.host_id("h8")], object_data=payload
    )
    return agent, payload, sent


class TestBatchedInitialWindow:
    def test_start_emits_the_full_window(self, monkeypatch):
        _, _, sent = _start_session_and_capture(monkeypatch)
        assert len(sent) == PAYLOAD_CONFIG.polyraptor.initial_window_symbols

    def test_window_payloads_match_per_symbol_encoding(self, monkeypatch):
        agent, payload, sent = _start_session_and_capture(monkeypatch)
        reference = ObjectEncoder(
            payload,
            symbol_size=agent.config.symbol_size_bytes,
            max_symbols_per_block=agent.config.max_symbols_per_block,
        )
        for packet in sent:
            symbol = packet.payload
            expected = reference.symbol(symbol.block_number, symbol.esi).data
            assert symbol.data == expected

    def test_start_never_uses_the_per_symbol_encode_path(self, monkeypatch):
        def _forbidden(self, block_number, esi):
            raise AssertionError("start() must batch through symbol_block")

        monkeypatch.setattr(ObjectEncoder, "symbol", _forbidden)
        _, _, sent = _start_session_and_capture(monkeypatch)
        assert len(sent) == PAYLOAD_CONFIG.polyraptor.initial_window_symbols
        assert all(packet.payload.data is not None for packet in sent)

    def test_identity_mode_start_still_works(self, monkeypatch):
        config = ExperimentConfig(
            fattree_k=4,
            max_sim_time_s=10.0,
            polyraptor=PolyraptorConfig(initial_window_symbols=6),
        )
        topology = FatTreeTopology(config.fattree_k)
        env = build_environment(Protocol.POLYRAPTOR, config, topology=topology)
        agent = env.polyraptor_agents["h0"]
        sent = []
        monkeypatch.setattr(agent.host, "send", sent.append)
        agent.start_push_session(1, OBJECT_BYTES, [env.network.host_id("h8")])
        assert len(sent) == 6
        assert all(packet.payload.data is None for packet in sent)
