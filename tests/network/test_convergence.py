"""Tests for routing-convergence delay: stale tables, delayed installs, epochs.

``NetworkConfig.convergence_delay_s`` models control-plane lag: a recompute
snapshots the failure state immediately but installs the new tables only
after the delay.  These tests pin down the contract: 0 delay is
byte-for-byte the historical instantaneous behaviour, a positive delay
leaves stale tables black-holing traffic during the window, installs apply
their detection-time snapshot in epoch order, and a stale install never
overwrites a fresher one.
"""

import pytest

from repro.network.network import Network, NetworkConfig
from repro.network.packet import Packet
from repro.network.topology import FatTreeTopology
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams

DELAY = 0.005


def build_network(seed=1, **overrides):
    sim = Simulator()
    topology = FatTreeTopology(4)
    network = Network(sim, topology, NetworkConfig(**overrides), RandomStreams(seed))
    return sim, network


def full_tables(network):
    return {name: sw.unicast_next_hops() for name, sw in network.switches.items()}


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.packets = []

    def handle_packet(self, packet):
        self.packets.append((self.sim.now, packet))


class TestConfigValidation:
    def test_defaults_are_instantaneous(self):
        config = NetworkConfig()
        assert config.convergence_delay_s == 0.0

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="convergence_delay_s"):
            NetworkConfig(convergence_delay_s=-0.1)


class TestInstantaneousPath:
    def test_zero_delay_installs_synchronously(self):
        _, network = build_network()
        rack = network.topology.host_rack("h0")
        uplink = sorted(
            a for a in network.topology.graph.neighbors(rack) if a.startswith("agg")
        )[0]
        network.set_link_state(rack, uplink, up=False)
        seen = []
        changed = network.recompute_routes(on_installed=seen.append)
        assert changed > 0
        assert seen == [changed]
        assert network.pending_route_installs == 0
        assert network.route_installs == 1
        assert all(
            uplink not in hops
            for hops in network.switches[rack].unicast_next_hops().values()
        )


class TestDelayedInstall:
    def test_tables_stay_stale_until_the_lag_elapses(self):
        sim, network = build_network(convergence_delay_s=DELAY)
        before = full_tables(network)
        rack = network.topology.host_rack("h0")
        uplink = sorted(
            a for a in network.topology.graph.neighbors(rack) if a.startswith("agg")
        )[0]
        installed = []

        def fail_and_recompute():
            network.set_link_state(rack, uplink, up=False)
            assert network.recompute_routes(on_installed=installed.append) == 0

        sim.schedule_at(0.001, fail_and_recompute)
        sim.run(until=0.001 + DELAY / 2)
        # Mid-window: detection happened, nothing installed yet.
        assert full_tables(network) == before
        assert network.pending_route_installs == 1
        assert installed == []

        sim.run()
        assert installed and installed[0] > 0
        assert network.pending_route_installs == 0
        assert all(
            uplink not in hops
            for hops in network.switches[rack].unicast_next_hops().values()
        )

    def test_stale_tables_black_hole_during_the_window(self):
        sim, network = build_network(convergence_delay_s=DELAY)
        sink = Sink(sim)
        network.host("h1").register_protocol("test", sink)
        rack = network.topology.host_rack("h1")
        link = network.link_between(rack, "h1")

        def fail_and_recompute():
            network.set_link_state(rack, "h1", up=False)
            network.recompute_routes()

        sim.schedule_at(0.0005, fail_and_recompute)

        def send():
            src = network.host("h0")
            src.send(Packet(protocol="test", src=src.node_id,
                            dst=network.host_id("h1"), size_bytes=1500))

        # During the lag the stale table still points at the dead wire.
        sim.schedule_at(0.001, send)
        sim.run(until=0.003)
        assert sink.packets == []
        assert link.dropped_link_down >= 1
        # After convergence the entry is cleared: no_route, not a dead-wire drop.
        dead_wire_drops = link.dropped_link_down
        sim.run(until=0.01)
        sim.schedule_at(0.011, send)
        sim.run(until=0.02)
        assert link.dropped_link_down == dead_wire_drops
        assert network.switches[rack].dropped_no_route >= 1

    def test_install_applies_detection_time_snapshot(self):
        """Fault and recovery inside one lag window: the fault's install
        applies the broken snapshot, the recovery's install restores."""
        sim, network = build_network(convergence_delay_s=DELAY)
        before = full_tables(network)
        rack = network.topology.host_rack("h0")
        uplink = sorted(
            a for a in network.topology.graph.neighbors(rack) if a.startswith("agg")
        )[0]

        def fail():
            network.set_link_state(rack, uplink, up=False)
            network.recompute_routes()

        def recover():
            network.set_link_state(rack, uplink, up=True)
            network.recompute_routes()

        sim.schedule_at(0.001, fail)
        sim.schedule_at(0.002, recover)  # recovery detected before install 1 lands
        sim.run(until=0.001 + DELAY + 0.0005)
        # Install 1 (broken snapshot) has landed; the fabric avoids the
        # link even though it is physically up again, and the routing
        # table records which failure set it was computed around.
        assert network.routing_table.failed_edges == frozenset(
            {frozenset((rack, uplink))}
        )
        assert any(
            uplink not in hops
            for hops in network.switches[rack].unicast_next_hops().values()
        )
        sim.run()
        assert full_tables(network) == before
        assert network.routing_table.failed_edges == frozenset()
        assert network.routing_table.failed_nodes == frozenset()
        assert network.route_installs == 2

    def test_stale_epoch_never_overwrites_fresher_install(self):
        sim, network = build_network(convergence_delay_s=DELAY)
        rack = network.topology.host_rack("h0")
        uplink = sorted(
            a for a in network.topology.graph.neighbors(rack) if a.startswith("agg")
        )[0]
        network.set_link_state(rack, uplink, up=False)
        healthy_snapshot = (frozenset(), frozenset())
        broken_snapshot = (frozenset({frozenset((rack, uplink))}), frozenset())
        # Epoch 2 (broken) lands first; the out-of-order epoch 1 (healthy)
        # must be discarded, not installed over it.
        network._route_epoch = 2
        network._install_converged_routes(2, *broken_snapshot, None)
        tables_after_fresh = full_tables(network)
        installs = network.route_installs
        network._install_converged_routes(1, *healthy_snapshot, None)
        assert full_tables(network) == tables_after_fresh
        assert network.route_installs == installs

    def test_every_install_waits_exactly_the_delay(self):
        """Each recompute installs exactly ``convergence_delay_s`` after it
        was called, so installs land in the order their recomputes ran."""
        sim, network = build_network(convergence_delay_s=DELAY)
        rack = network.topology.host_rack("h0")
        uplinks = sorted(
            a for a in network.topology.graph.neighbors(rack) if a.startswith("agg")
        )
        installs = []

        def fail(uplink):
            network.set_link_state(rack, uplink, up=False)
            network.recompute_routes(
                on_installed=lambda _changed: installs.append(sim.now)
            )

        detections = [0.001, 0.001 + DELAY / 3]
        for when, uplink in zip(detections, uplinks):
            sim.schedule_at(when, fail, uplink)
        sim.run()
        assert installs == [pytest.approx(when + DELAY) for when in detections]
        assert network.route_installs == len(detections)

    def test_run_ending_before_install_leaves_it_pending(self):
        sim, network = build_network(convergence_delay_s=DELAY)
        rack = network.topology.host_rack("h0")
        uplink = sorted(
            a for a in network.topology.graph.neighbors(rack) if a.startswith("agg")
        )[0]
        before = full_tables(network)
        network.set_link_state(rack, uplink, up=False)
        network.recompute_routes()
        sim.run(until=DELAY / 10)
        assert network.pending_route_installs == 1
        assert full_tables(network) == before
