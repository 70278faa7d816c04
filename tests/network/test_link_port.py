"""Tests for ports (serialisation) and links (propagation)."""

import pytest

from repro.network.link import Link, Port
from repro.network.node import Node
from repro.network.packet import Packet
from repro.network.queues import DropTailQueue
from repro.sim.engine import Simulator
from repro.utils.units import GBPS, MICROSECOND


class RecordingNode(Node):
    """A node that records packet arrival times."""

    def __init__(self, sim, node_id=0, name="sink"):
        super().__init__(sim, node_id, name)
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet))


def build_port(sim, sink, rate=1 * GBPS, delay=10 * MICROSECOND, capacity=100):
    link = Link(sim, sink, delay)
    return Port(sim, owner=sink, queue=DropTailQueue(capacity), rate_bps=rate, link=link)


def data_packet(size=1500):
    return Packet(protocol="t", src=0, dst=1, size_bytes=size)


class TestPortTiming:
    def test_single_packet_latency(self):
        sim = Simulator()
        sink = RecordingNode(sim)
        port = build_port(sim, sink)
        port.send(data_packet(1500))
        sim.run()
        # 12 us serialisation + 10 us propagation.
        assert sink.arrivals[0][0] == pytest.approx(22 * MICROSECOND)

    def test_back_to_back_packets_serialise_sequentially(self):
        sim = Simulator()
        sink = RecordingNode(sim)
        port = build_port(sim, sink)
        for _ in range(3):
            port.send(data_packet(1500))
        sim.run()
        times = [t for t, _ in sink.arrivals]
        assert times == pytest.approx([22e-6, 34e-6, 46e-6])

    def test_hop_count_incremented(self):
        sim = Simulator()
        sink = RecordingNode(sim)
        port = build_port(sim, sink)
        port.send(data_packet())
        sim.run()
        assert sink.arrivals[0][1].hops == 1

    def test_port_counters(self):
        sim = Simulator()
        sink = RecordingNode(sim)
        port = build_port(sim, sink)
        port.send(data_packet(1000))
        port.send(data_packet(500))
        sim.run()
        assert [packet.size_bytes for _, packet in sink.arrivals] == [1000, 500]
        assert port.transmitted_bytes == 1500

    def test_drop_reported_by_send(self):
        sim = Simulator()
        sink = RecordingNode(sim)
        port = build_port(sim, sink, capacity=1)
        # The first packet is dequeued immediately for serialisation; the
        # second occupies the single queue slot; the third must be dropped.
        assert port.send(data_packet()) is True
        assert port.send(data_packet()) is True
        assert port.send(data_packet()) is False

    def test_rejects_bad_rate(self):
        sim = Simulator()
        sink = RecordingNode(sim)
        link = Link(sim, sink, 0.0)
        with pytest.raises(ValueError):
            Port(sim, owner=sink, queue=DropTailQueue(), rate_bps=0, link=link)

    def test_rejects_negative_delay(self):
        sim = Simulator()
        sink = RecordingNode(sim)
        with pytest.raises(ValueError):
            Link(sim, sink, -1.0)

    def test_zero_delay_link(self):
        sim = Simulator()
        sink = RecordingNode(sim)
        port = build_port(sim, sink, delay=0.0)
        port.send(data_packet(1500))
        sim.run()
        assert sink.arrivals[0][0] == pytest.approx(12 * MICROSECOND)
