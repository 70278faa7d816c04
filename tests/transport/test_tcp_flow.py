"""Tests for TCP: single flows, congestion response, Incast behaviour."""

import pytest

from repro.transport.tcp.config import TcpConfig
from repro.transport.tcp.segments import TcpSegment
from tests.conftest import TcpTestbed


class TestTcpConfig:
    def test_defaults_sane(self):
        config = TcpConfig()
        assert config.packet_bytes == 1500
        assert config.initial_cwnd_bytes == 10 * config.mss_bytes

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TcpConfig(mss_bytes=0)
        with pytest.raises(ValueError):
            TcpConfig(rtt_alpha=1.5)


class TestTcpSegment:
    def test_end_seq(self):
        segment = TcpSegment(flow_id=1, src_host=0, dst_host=1, seq=1000, length=500)
        assert segment.end_seq == 1500


class TestSingleFlow:
    def test_reaches_near_line_rate_on_idle_network(self):
        bed = TcpTestbed()
        bed.agents["h0"].start_flow(1, bed.host_id("h12"), 1_000_000,
                                    on_complete=bed.record(1, 1_000_000))
        bed.run()
        record = bed.registry.get(1)
        assert record.completed
        assert record.goodput_gbps > 0.8

    def test_no_retransmissions_on_idle_network(self):
        bed = TcpTestbed()
        sender = bed.agents["h0"].start_flow(1, bed.host_id("h12"), 500_000)
        bed.run()
        assert sender.completed
        assert sender.retransmissions == 0
        assert sender.timeouts == 0

    def test_rtt_estimate_matches_fabric(self):
        bed = TcpTestbed()
        sender = bed.agents["h0"].start_flow(1, bed.host_id("h15"), 500_000)
        bed.run()
        # The unloaded fat-tree RTT is ~200 microseconds; a full drop-tail
        # queue (100 x 12 us) adds up to ~1.2 ms of queueing on top.
        assert sender.srtt is not None
        assert 50e-6 < sender.srtt < 5e-3

    def test_small_flow_completes(self):
        bed = TcpTestbed()
        bed.agents["h0"].start_flow(1, bed.host_id("h1"), 2_000,
                                    on_complete=bed.record(1, 2_000))
        bed.run()
        assert bed.registry.get(1).completed

    def test_duplicate_flow_id_rejected(self):
        bed = TcpTestbed()
        bed.agents["h0"].start_flow(1, bed.host_id("h1"), 1000)
        with pytest.raises(ValueError):
            bed.agents["h0"].start_flow(1, bed.host_id("h2"), 1000)

    def test_receiver_state_tracks_bytes(self):
        bed = TcpTestbed()
        bed.agents["h0"].start_flow(1, bed.host_id("h3"), 100_000)
        bed.run()
        receiver = bed.agents["h3"].receiver(1)
        assert receiver.cumulative_ack == 100_000

    def test_cwnd_grows_beyond_initial_window(self):
        bed = TcpTestbed()
        sender = bed.agents["h0"].start_flow(1, bed.host_id("h12"), 1_000_000)
        bed.run()
        assert sender.cwnd > sender.config.initial_cwnd_bytes


class TestCongestionResponse:
    def test_concurrent_flows_share_a_link_and_lose_packets(self):
        bed = TcpTestbed(seed=3)
        destination = bed.host_id("h0")
        senders = []
        for index, name in enumerate(["h4", "h5", "h6", "h8", "h9", "h12", "h13", "h14"]):
            senders.append(bed.agents[name].start_flow(10 + index, destination, 400_000))
        bed.run(until=10.0)
        assert all(sender.completed for sender in senders)
        # Eight senders into one 1 Gbps link with 100-packet buffers must lose
        # packets and recover (fast retransmit and/or timeout).
        total_recoveries = sum(s.fast_retransmits + s.timeouts for s in senders)
        assert total_recoveries > 0
        assert bed.network.total_dropped_packets > 0

    def test_incast_collapse_with_many_synchronised_senders(self):
        bed = TcpTestbed(seed=4)
        destination = bed.host_id("h0")
        sender_names = [name for name in bed.network.host_names if name != "h0"][:12]
        for index, name in enumerate(sender_names):
            bed.agents[name].start_flow(100 + index, destination, 256_000,
                                        on_complete=bed.record(100 + index, 256_000))
        bed.run(until=10.0)
        records = bed.registry.completed_records
        assert len(records) == len(sender_names)
        total_bytes = sum(record.transfer_bytes for record in records)
        span = max(r.completion_time for r in records) - min(r.start_time for r in records)
        aggregate_gbps = total_bytes * 8 / span / 1e9
        # Classic Incast: goodput collapses far below the 1 Gbps receiver link.
        assert aggregate_gbps < 0.5
        assert any(sender.timeouts > 0
                   for name in sender_names
                   for sender in [bed.agents[name].sender(100 + sender_names.index(name))])


class TestTrimmedPacketHandling:
    def test_trimmed_packets_are_ignored_as_losses(self):
        from repro.network.packet import Packet
        from repro.transport.tcp.config import TCP_PROTOCOL

        bed = TcpTestbed()
        agent = bed.agents["h1"]
        segment = TcpSegment(flow_id=5, src_host=0, dst_host=1, seq=0, length=1436)
        packet = Packet(protocol=TCP_PROTOCOL, src=0, dst=1, size_bytes=1500, payload=segment)
        trimmed = packet.trim()
        agent.handle_packet(trimmed)  # must not raise nor create receiver state
        with pytest.raises(KeyError):
            agent.receiver(5)
