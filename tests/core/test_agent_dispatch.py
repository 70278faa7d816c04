"""Tests for PolyraptorAgent dispatch, error handling and trace integration."""

import pytest

from repro.core.agent import POLYRAPTOR_PROTOCOL, PolyraptorAgent
from repro.core.config import PolyraptorConfig
from repro.core.packets import DonePayload, PullPayload, RequestPayload
from repro.network.packet import Packet, make_control_packet
from repro.protocol.sender import SenderCore
from repro.sim.trace import TraceLog
from tests.conftest import PolyraptorTestbed


class TestAgentDispatch:
    def test_unknown_payload_type_rejected(self):
        bed = PolyraptorTestbed()
        agent = bed.agents["h0"]
        packet = make_control_packet(POLYRAPTOR_PROTOCOL, 1, 0, payload={"bogus": True})
        with pytest.raises(TypeError):
            agent.handle_packet(packet)

    def test_pull_for_unknown_session_is_ignored(self):
        bed = PolyraptorTestbed()
        agent = bed.agents["h0"]
        pull = PullPayload(session_id=999, receiver_host=1, pull_sequence=1)
        agent.handle_packet(make_control_packet(POLYRAPTOR_PROTOCOL, 1, 0, payload=pull))

    def test_done_for_unknown_session_is_ignored(self):
        bed = PolyraptorTestbed()
        agent = bed.agents["h0"]
        done = DonePayload(session_id=999, receiver_host=1)
        agent.handle_packet(make_control_packet(POLYRAPTOR_PROTOCOL, 1, 0, payload=done))

    def test_duplicate_request_does_not_create_second_sender(self):
        bed = PolyraptorTestbed()
        agent = bed.agents["h4"]
        request = RequestPayload(session_id=5, receiver_host=bed.host_id("h0"),
                                 object_bytes=50_000, sender_index=0, num_senders=1)
        packet = make_control_packet(POLYRAPTOR_PROTOCOL, bed.host_id("h0"),
                                     bed.host_id("h4"), payload=request)
        agent.handle_packet(packet)
        first = agent.sender_session(5)
        agent.handle_packet(packet)
        assert agent.sender_session(5) is first

    def test_receiver_session_created_on_first_symbol(self):
        bed = PolyraptorTestbed()
        bed.agents["h0"].start_push_session(1, 50_000, [bed.host_id("h9")])
        assert not bed.agents["h9"].has_receiver_session(1)
        bed.run(until=0.001)
        assert bed.agents["h9"].has_receiver_session(1)

    def test_duplicate_fetch_session_rejected(self):
        bed = PolyraptorTestbed()
        bed.agents["h0"].start_fetch_session(1, 10_000, [bed.host_id("h4")])
        with pytest.raises(ValueError):
            bed.agents["h0"].start_fetch_session(1, 10_000, [bed.host_id("h5")])

    def test_sender_session_lookup_unknown_raises(self):
        bed = PolyraptorTestbed()
        with pytest.raises(KeyError):
            bed.agents["h0"].sender_session(123)


class TestSenderSessionValidation:
    def test_requires_receivers(self):
        bed = PolyraptorTestbed()
        with pytest.raises(ValueError):
            bed.agents["h0"].start_push_session(1, 1000, [])

    # The index / multicast checks live in the protocol core the agent builds.
    @staticmethod
    def _sender_core(**options):
        return SenderCore(config=PolyraptorConfig(), session_id=1, object_bytes=1000,
                          receiver_host_ids=[1], local_host=0, link_rate_bps=1e9,
                          **options)

    def test_invalid_sender_index_rejected(self):
        with pytest.raises(ValueError):
            self._sender_core(sender_index=3, num_senders=2)

    def test_multicast_with_multiple_senders_rejected(self):
        with pytest.raises(ValueError):
            self._sender_core(multicast_group=5, sender_index=0, num_senders=2)


class TestTraceIntegration:
    def test_switch_trims_are_traced(self):
        trace = TraceLog(enabled=True, categories={"switch.trim"})
        bed = PolyraptorTestbed(seed=3)
        # Rebuild a testbed with tracing by instantiating agents over a traced network.
        from repro.network.network import Network, NetworkConfig
        from repro.network.topology import FatTreeTopology
        from repro.sim.engine import Simulator
        from repro.sim.randomness import RandomStreams
        from repro.transport.base import TransferRegistry

        sim = Simulator()
        network = Network(sim, FatTreeTopology(4), NetworkConfig(), RandomStreams(3),
                          trace=trace)
        registry = TransferRegistry()
        agents = {
            host.name: PolyraptorAgent(sim, host, bed.config, registry, trace)
            for host in network.hosts
        }
        destination = network.host_id("h0")
        for index, name in enumerate(["h4", "h8", "h12", "h13"]):
            agents[name].start_push_session(10 + index, 200_000, [destination])
        sim.run(until=5.0)
        assert network.total_trimmed_packets > 0
        assert trace.count("switch.trim") == network.total_trimmed_packets
