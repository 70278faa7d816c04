"""Tests for ECN/PCN marking.

No marks below threshold, CE set above it, EWMA hysteresis (marking
persists briefly after a burst drains), and marking wired into drop-tail
switch queues only: never host NICs, never trimming queues.
"""

from __future__ import annotations

import pytest

from repro.network.network import Network, NetworkConfig
from repro.network.packet import Packet, make_control_packet
from repro.network.queues import ECN_EWMA_WEIGHT, DropTailQueue, EcnMarker, TrimmingQueue
from repro.network.topology import FatTreeTopology
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


def data_packet(flow_id=0):
    return Packet(protocol="t", src=0, dst=1, size_bytes=1500, flow_id=flow_id)


class TestEcnMarker:
    def test_no_marks_below_threshold(self):
        marker = EcnMarker(threshold_packets=4)
        for depth in (0, 1, 2, 3):
            packet = marker.maybe_mark(data_packet(), depth)
            assert not packet.ce
        assert marker.marks == 0

    def test_ce_set_at_and_above_threshold(self):
        marker = EcnMarker(threshold_packets=4)
        assert marker.maybe_mark(data_packet(), 4).ce
        assert marker.maybe_mark(data_packet(), 10).ce
        assert marker.marks == 2

    def test_marking_copies_do_not_mutate_original(self):
        marker = EcnMarker(threshold_packets=1)
        original = data_packet()
        marked = marker.maybe_mark(original, 5)
        assert marked.ce and not original.ce
        assert marked.packet_id == original.packet_id

    def test_already_marked_packet_not_recounted(self):
        marker = EcnMarker(threshold_packets=1)
        marked = marker.maybe_mark(data_packet(), 5)
        again = marker.maybe_mark(marked, 5)
        assert again is marked
        assert marker.marks == 1

    def test_ewma_hysteresis_keeps_marking_after_burst_drains(self):
        # A sustained burst far over the threshold saturates the average;
        # once the instantaneous depth collapses to 0, the EWMA is still
        # above the threshold and marking continues -- the PCN-style
        # hysteresis.
        assert ECN_EWMA_WEIGHT == 0.2
        marker = EcnMarker(threshold_packets=8)
        for _ in range(50):
            marker.observe(20)
        assert marker.ewma_depth > 19
        packet = marker.maybe_mark(data_packet(), 0)
        assert packet.ce  # instantaneous depth 0, EWMA 16 still over threshold
        # The EWMA decays by 0.8 per empty sample: 12.8, 10.2, 8.2, then 6.6.
        for _ in range(3):
            marker.observe(0)
        assert not marker.maybe_mark(data_packet(), 0).ce

    def test_ewma_threshold_is_the_step_threshold(self):
        # Three samples of 20 bring the EWMA to 9.76. A sample of 2 then
        # lands it on 8.21 and a sample of 0 on 7.81: with the step
        # threshold at 8, only the first marks, although both samples are
        # far below 8 -- so the EWMA threshold sits in (7.81, 8.21].
        for depth, marks in ((2, True), (0, False)):
            marker = EcnMarker(threshold_packets=8)
            for _ in range(3):
                marker.observe(20)
            assert marker.maybe_mark(data_packet(), depth).ce is marks

    def test_validation(self):
        with pytest.raises(ValueError):
            EcnMarker(threshold_packets=0)
        # The EWMA weight and threshold are no longer per-marker knobs.
        with pytest.raises(TypeError):
            EcnMarker(threshold_packets=4, ewma_weight=0.1)


class TestQueueMarking:
    def test_droptail_marks_data_over_threshold(self):
        queue = DropTailQueue(capacity_packets=50, marker=EcnMarker(threshold_packets=2))
        queued = [queue.enqueue(data_packet(i)) for i in range(5)]
        # Depth before append: 0, 1 below threshold; 2, 3, 4 at/above.
        assert [p.ce for p in queued] == [False, False, True, True, True]
        assert queue.ecn_marked == 3

    def test_droptail_without_marker_never_marks(self):
        queue = DropTailQueue(capacity_packets=5)
        assert not queue.enqueue(data_packet()).ce
        assert queue.ecn_marked == 0

    def test_droptail_control_packets_not_marked(self):
        queue = DropTailQueue(capacity_packets=50, marker=EcnMarker(threshold_packets=1))
        for _ in range(5):
            queue.enqueue(data_packet())
        control = queue.enqueue(make_control_packet("t", 0, 1, None))
        assert not control.ce

    def test_trimming_queue_never_marks(self):
        with pytest.raises(TypeError):
            TrimmingQueue(data_capacity_packets=2, marker=EcnMarker(threshold_packets=2))
        queue = TrimmingQueue(data_capacity_packets=2)
        queued = [queue.enqueue(data_packet(i)) for i in range(3)]
        # The overflow packet is trimmed to a header; nothing carries CE.
        assert queued[2].trimmed and queue.trimmed_packets == 1
        assert not any(p.ce for p in queued)
        assert not hasattr(queue, "ecn_marked")


class TestNetworkWiring:
    def build(self, **overrides):
        sim = Simulator()
        topology = FatTreeTopology(4)
        config = NetworkConfig(**overrides)
        return Network(sim, topology, config, RandomStreams(1))

    def test_disabled_by_default(self):
        network = self.build(switch_queue="droptail")
        assert not network.config.ecn_enabled
        for switch in network.switches.values():
            for port in switch.ports.values():
                assert port.queue.marker is None
        assert network.total_ecn_marked == 0

    def test_enabled_marks_switch_queues_only(self):
        network = self.build(switch_queue="droptail", ecn_enabled=True,
                             droptail_capacity_packets=15)
        markers = [
            port.queue.marker
            for switch in network.switches.values()
            for port in switch.ports.values()
        ]
        assert markers and all(m is not None for m in markers)
        # The threshold is a fifth of the drop-tail capacity.
        assert all(m.threshold_packets == 3 for m in markers)
        # Each queue owns its own marker state (per-port EWMA/counters).
        assert len({id(m) for m in markers}) == len(markers)
        # Host NICs never mark: the fabric, not the endpoint, signals.
        for host in network.hosts:
            assert getattr(host.nic.queue, "marker", None) is None

    @pytest.mark.parametrize("capacity, threshold", [(100, 20), (4, 1)])
    def test_threshold_is_a_fifth_of_the_droptail_capacity(self, capacity, threshold):
        network = self.build(switch_queue="droptail", ecn_enabled=True,
                             droptail_capacity_packets=capacity)
        switch = next(iter(network.switches.values()))
        assert {port.queue.marker.threshold_packets for port in switch.ports.values()} == {threshold}

    def test_trimming_queues_carry_no_marker(self):
        network = self.build()
        for switch in network.switches.values():
            for port in switch.ports.values():
                assert not hasattr(port.queue, "marker")
        assert network.total_ecn_marked == 0

    def test_validation(self):
        # Trimming is the default fabric: asking it to mark must fail, not
        # silently do nothing.
        with pytest.raises(ValueError, match="droptail"):
            NetworkConfig(ecn_enabled=True)
        with pytest.raises(ValueError, match="droptail"):
            NetworkConfig(switch_queue="trimming", ecn_enabled=True)
