"""Tests for ECN/PCN marking and gray-failure path-loss detection.

Covers the ISSUE satellites: no marks below threshold, CE set above it,
EWMA hysteresis (marking persists briefly after a burst drains), marking
wired into switch queues but never host NICs, and gray detection flipping
the straggler policy's weights (lossy receivers detached, the cleanest one
never).
"""

from __future__ import annotations

import pytest

from repro.network.network import Network, NetworkConfig
from repro.network.packet import Packet, make_control_packet
from repro.network.queues import DropTailQueue, EcnMarker, TrimmingQueue
from repro.network.topology import FatTreeTopology
from repro.protocol.straggler import PathLossEstimator, StragglerPolicy
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
        # High EWMA weight so a sustained burst saturates the average; once
        # the instantaneous depth collapses to 0, the EWMA is still above the
        # threshold and marking continues -- the PCN-style hysteresis.
        marker = EcnMarker(threshold_packets=8, ewma_weight=0.1)
        for _ in range(50):
            marker.observe(10)
        assert marker.ewma_depth > 9
        packet = marker.maybe_mark(data_packet(), 0)
        assert packet.ce  # instantaneous depth 0, EWMA still over threshold
        # The EWMA decays as empty samples accumulate; marking stops.
        for _ in range(30):
            marker.observe(0)
        assert not marker.maybe_mark(data_packet(), 0).ce

    def test_validation(self):
        with pytest.raises(ValueError):
            EcnMarker(threshold_packets=0)
        with pytest.raises(ValueError):
            EcnMarker(threshold_packets=4, ewma_weight=0.0)
        with pytest.raises(ValueError):
            EcnMarker(threshold_packets=4, ewma_threshold_packets=0.0)


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

    def test_trimming_queue_marks_and_trimmed_packet_keeps_ce(self):
        queue = TrimmingQueue(data_capacity_packets=2, marker=EcnMarker(threshold_packets=2))
        queue.enqueue(data_packet(1))
        queue.enqueue(data_packet(2))
        # Data queue full: depth 2 >= threshold, so the overflow packet is
        # marked *and then* trimmed -- the surviving header carries CE back.
        overflow = queue.enqueue(data_packet(3))
        assert overflow.trimmed
        assert overflow.ce
        assert queue.ecn_marked == 1
        assert queue.trimmed_packets == 1


class TestNetworkWiring:
    def build(self, **overrides):
        sim = Simulator()
        topology = FatTreeTopology(4)
        config = NetworkConfig(**overrides)
        return Network(sim, topology, config, RandomStreams(1))

    def test_disabled_by_default(self):
        network = self.build()
        assert not network.config.ecn_enabled
        for switch in network.switches.values():
            for port in switch.ports.values():
                assert port.queue.marker is None
        assert network.total_ecn_marked == 0

    def test_enabled_marks_switch_queues_only(self):
        network = self.build(ecn_enabled=True, ecn_threshold_packets=3)
        markers = [
            port.queue.marker
            for switch in network.switches.values()
            for port in switch.ports.values()
        ]
        assert markers and all(m is not None for m in markers)
        assert all(m.threshold_packets == 3 for m in markers)
        # Each queue owns its own marker state (per-port EWMA/counters).
        assert len({id(m) for m in markers}) == len(markers)
        # Host NICs never mark: the fabric, not the endpoint, signals.
        for host in network.hosts:
            assert getattr(host.nic.queue, "marker", None) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(ecn_enabled=True, ecn_threshold_packets=0)
        with pytest.raises(ValueError):
            NetworkConfig(ecn_enabled=True, ecn_ewma_weight=1.5)


class TestPathLossEstimator:
    def test_clean_in_order_stream_estimates_zero(self):
        estimator = PathLossEstimator(window_symbols=8)
        for sequence in range(1, 30):
            assert estimator.on_symbol(sequence) == 0
        assert estimator.loss_estimate == 0.0
        assert estimator.windows_closed >= 3

    def test_gap_detected_as_missing(self):
        estimator = PathLossEstimator(window_symbols=100)
        estimator.on_symbol(1)
        assert estimator.on_symbol(2) == 0
        assert estimator.on_symbol(5) == 2  # 3 and 4 never arrived

    def test_reordering_is_not_loss(self):
        # 1, 3, 2: the gap 3 exposes one "missing" symbol, but 2's late
        # arrival repairs it -- the closed window must estimate zero loss.
        estimator = PathLossEstimator(window_symbols=4, ewma_weight=1.0)
        estimator.on_symbol(1)
        estimator.on_symbol(3)
        estimator.on_symbol(2)
        estimator.on_symbol(4)
        estimator.on_symbol(5)
        assert estimator.windows_closed == 1
        assert estimator.loss_estimate == 0.0

    def test_sustained_loss_converges_to_rate(self):
        # Every 4th symbol missing: 25% loss.
        estimator = PathLossEstimator(window_symbols=16, ewma_weight=0.5)
        for sequence in range(1, 200):
            if sequence % 4 != 0:
                estimator.on_symbol(sequence)
        assert estimator.loss_estimate == pytest.approx(0.25, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            PathLossEstimator(window_symbols=0)
        with pytest.raises(ValueError):
            PathLossEstimator(ewma_weight=1.5)


class TestFindLossy:
    POLICY = StragglerPolicy(loss_detection=True, loss_threshold=0.05)

    def test_detection_flips_weights(self):
        lossy = self.POLICY.find_lossy(
            {1: 0.0, 2: 0.20, 3: 0.01}, active_receivers={1, 2, 3}
        )
        assert lossy == {2}

    def test_disabled_policy_detects_nothing(self):
        policy = StragglerPolicy(loss_detection=False)
        assert policy.find_lossy({1: 0.9, 2: 0.9}, {1, 2}) == set()

    def test_unknown_receivers_count_as_clean(self):
        lossy = self.POLICY.find_lossy({2: 0.5}, active_receivers={1, 2})
        assert lossy == {2}

    def test_never_detaches_everyone(self):
        lossy = self.POLICY.find_lossy(
            {1: 0.30, 2: 0.20}, active_receivers={1, 2}
        )
        assert lossy == {1}  # the cleaner receiver (2) stays attached

    def test_single_receiver_never_detached(self):
        assert self.POLICY.find_lossy({1: 0.9}, {1}) == set()
