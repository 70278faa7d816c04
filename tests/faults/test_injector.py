"""Tests for the fault injector driving a live network.

Each test builds a small fat-tree, arms a hand-written schedule and checks
that the dynamic hooks fire at the scheduled times: packets die on dead
links (including in flight), routing recomputes around failures and restores
exactly on recovery, degraded ports slow down, lossy links drop at the
seeded rate, failed switches black-hole, and slowed hosts serialise slower.
"""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.schedule import (
    FaultSchedule,
    link_degrade,
    link_down,
    link_loss,
    link_up,
    switch_down,
    switch_up,
)
from repro.network.network import Network, NetworkConfig
from repro.network.packet import Packet
from repro.network.routing import RoutingMode
from repro.network.topology import FatTreeTopology
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.utils.units import serialization_delay


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.packets = []

    def handle_packet(self, packet):
        self.packets.append((self.sim.now, packet))


def build_network(seed=1, **config_overrides):
    sim = Simulator()
    topology = FatTreeTopology(4)
    network = Network(sim, topology, NetworkConfig(**config_overrides), RandomStreams(seed))
    return sim, network


def arm(sim, network, *events):
    injector = FaultInjector(sim, network, FaultSchedule.ordered(events))
    injector.start()
    return injector


def hand_to_wire_at(sim, network, switch_name, remote_name, packet, time):
    """Queue ``packet`` on a switch's idle egress port at ``time``.

    Returns the port and the instant the serialised packet is handed to the
    wire, from which its propagation starts.
    """
    port = network.switches[switch_name].port_to(remote_name)
    sim.schedule_at(time, port.send, packet)
    return port, time + serialization_delay(packet.size_bytes, port.rate_bps)


def send_unicast(network, src_name, dst_name, size=1500):
    src = network.host(src_name)
    src.send(
        Packet(protocol="test", src=src.node_id, dst=network.host_id(dst_name), size_bytes=size)
    )


class TestLinkFaults:
    def test_downed_access_link_unreaches_the_host(self):
        """Routing recomputes around a dead access link: no route, no delivery."""
        sim, network = build_network()
        sink = Sink(sim)
        network.host("h1").register_protocol("test", sink)
        rack = network.topology.host_rack("h1")
        arm(sim, network, link_down(0.0, rack, "h1"))
        sim.schedule_at(0.001, send_unicast, network, "h0", "h1")
        sim.run()
        assert sink.packets == []
        assert network.switches[rack].dropped_no_route >= 1

    def test_in_flight_packet_dies_with_the_link(self):
        sim, network = build_network()
        sink = Sink(sim)
        network.host("h1").register_protocol("test", sink)
        rack = network.topology.host_rack("h1")
        link = network.link_between(rack, "h1")
        # The link dies mid-propagation: the packet was handed to the wire
        # before the fault but must never arrive.
        packet = Packet(protocol="test", src=0, dst=network.host_id("h1"), size_bytes=1500)
        port, on_wire = hand_to_wire_at(sim, network, rack, "h1", packet, 0.001)
        arm(sim, network, link_down(on_wire + link.delay_s / 2, rack, "h1"))
        sim.run()
        assert port.transmitted_bytes == 1500
        assert sink.packets == []
        assert link.dropped_link_down == 1

    def test_flap_faster_than_propagation_still_kills_in_flight_packet(self):
        """A down/up cycle during a packet's flight drops it even though the
        wire is back up at delivery time."""
        sim, network = build_network()
        sink = Sink(sim)
        network.host("h1").register_protocol("test", sink)
        rack = network.topology.host_rack("h1")
        link = network.link_between(rack, "h1")
        packet = Packet(protocol="test", src=0, dst=network.host_id("h1"), size_bytes=1500)
        port, on_wire = hand_to_wire_at(sim, network, rack, "h1", packet, 0.001)
        arm(
            sim, network,
            link_down(on_wire + link.delay_s / 3, rack, "h1"),
            link_up(on_wire + link.delay_s / 2, rack, "h1"),
        )
        sim.run()
        assert port.transmitted_bytes == 1500
        assert sink.packets == []
        assert link.dropped_link_down == 1
        # The wire works again for traffic sent after the flap.
        sim.schedule_at(0.01, send_unicast, network, "h0", "h1")
        sim.run()
        assert len(sink.packets) == 1

    def test_link_down_then_up_delivers_again(self):
        sim, network = build_network()
        sink = Sink(sim)
        network.host("h1").register_protocol("test", sink)
        rack = network.topology.host_rack("h1")
        arm(sim, network, link_down(0.0, rack, "h1"), link_up(0.01, rack, "h1"))
        sim.schedule_at(0.02, send_unicast, network, "h0", "h1")
        sim.run()
        assert len(sink.packets) == 1

    def test_degrade_halves_the_serialisation_rate(self):
        sim, network = build_network()
        rack = network.topology.host_rack("h1")
        port = network.switches[rack].port_to("h1")
        nominal = port.rate_bps
        arm(sim, network, link_degrade(0.0, rack, "h1", 0.5))
        sim.run()
        assert port.rate_bps == pytest.approx(nominal / 2)
        network.degrade_link(rack, "h1", 1.0)
        assert port.rate_bps == pytest.approx(nominal)

    def test_scheduled_degrade_and_recovery_cover_both_directions(self):
        """A degraded access link slows the host's NIC as well as the rack
        port facing it, and a later 1.0 event restores both."""
        sim, network = build_network()
        rack = network.topology.host_rack("h3")
        ports = [network.switches[rack].port_to("h3"), network.host("h3").nic]
        nominal = [port.rate_bps for port in ports]
        arm(
            sim, network,
            link_degrade(0.001, rack, "h3", 0.25),
            link_degrade(0.002, rack, "h3", 1.0),
        )
        sim.run(until=0.0015)
        assert [port.rate_bps for port in ports] == pytest.approx(
            [rate / 4 for rate in nominal]
        )
        sim.run()
        assert [port.rate_bps for port in ports] == pytest.approx(nominal)

    def test_certain_loss_drops_everything_and_counts(self):
        sim, network = build_network()
        sink = Sink(sim)
        network.host("h1").register_protocol("test", sink)
        rack = network.topology.host_rack("h1")
        arm(sim, network, link_loss(0.0, rack, "h1", 1.0))
        for index in range(5):
            sim.schedule_at(0.001 * (index + 1), send_unicast, network, "h0", "h1")
        sim.run()
        assert sink.packets == []
        assert network.total_dropped_random_loss == 5

    def test_loss_draws_are_seeded(self):
        """Two equally seeded networks lose exactly the same packets."""
        outcomes = []
        for _ in range(2):
            sim, network = build_network(seed=42)
            sink = Sink(sim)
            network.host("h1").register_protocol("test", sink)
            rack = network.topology.host_rack("h1")
            arm(sim, network, link_loss(0.0, rack, "h1", 0.5))
            for index in range(20):
                sim.schedule_at(0.001 * (index + 1), send_unicast, network, "h0", "h1")
            sim.run()
            outcomes.append(tuple(now for now, _ in sink.packets))
        assert outcomes[0] == outcomes[1]
        assert 0 < len(outcomes[0]) < 20

    def test_unknown_link_rejected(self):
        _, network = build_network()
        with pytest.raises(KeyError):
            network.set_link_state("h0", "h15", up=False)


class TestRoutingRecompute:
    def test_link_down_reroutes_and_up_restores_pre_failure_table(self):
        sim, network = build_network()
        rack = network.topology.host_rack("h0")
        before = {name: sw.unicast_next_hops() for name, sw in network.switches.items()}
        uplink = sorted(
            agg for agg in network.topology.graph.neighbors(rack) if agg.startswith("agg")
        )[0]

        injector = arm(
            sim, network, link_down(0.001, rack, uplink), link_up(0.002, rack, uplink)
        )
        sim.run(until=0.0015)
        during = network.switches[rack].unicast_next_hops()
        assert during != before[rack]
        assert all(uplink not in hops for hops in during.values())
        assert network.failed_edges == frozenset({frozenset((rack, uplink))})

        sim.run()
        after = {name: sw.unicast_next_hops() for name, sw in network.switches.items()}
        assert after == before
        assert network.failed_edges == frozenset()
        assert injector.reroutes > 0

    def test_traffic_flows_around_a_failed_aggregation_switch(self):
        sim, network = build_network()
        sink = Sink(sim)
        network.host("h15").register_protocol("test", sink)
        victim = "agg0_0"
        arm(sim, network, switch_down(0.0, victim))
        for index in range(8):
            sim.schedule_at(0.001 * (index + 1), send_unicast, network, "h0", "h15")
        sim.run()
        assert len(sink.packets) == 8  # everything rerouted via agg0_1

    def test_failed_switch_black_holes_before_recompute(self):
        sim, network = build_network()
        victim = "agg0_0"
        switch = network.switches[victim]
        switch.set_failed(True)  # direct hook: no recompute has happened yet
        switch.receive(Packet(protocol="test", src=0, dst=5, size_bytes=1500))
        assert switch.dropped_switch_down == 1
        assert network.total_dropped_switch_down == 1

    def test_same_time_compound_fault_recomputes_once(self):
        """A batch of topology events pays one rebuild: reroutes counts the
        combined failure's table diff, not per-event transients."""
        rack = FatTreeTopology(4).host_rack("h0")

        sim, network = build_network()
        injector = arm(
            sim, network,
            link_down(0.001, rack, "agg0_0"),
            switch_down(0.001, "core0"),
        )
        sim.run()
        batched = injector.reroutes

        reference_sim, reference = build_network()
        reference.set_link_state(rack, "agg0_0", up=False)
        reference.set_switch_failed("core0", failed=True)
        assert batched == reference.recompute_routes()

    def test_switch_down_then_up_restores_table(self):
        sim, network = build_network()
        before = {name: sw.unicast_next_hops() for name, sw in network.switches.items()}
        injector = arm(
            sim, network, switch_down(0.001, "core0"), switch_up(0.002, "core0")
        )
        sim.run()
        after = {name: sw.unicast_next_hops() for name, sw in network.switches.items()}
        assert after == before
        assert injector.switches_failed == injector.switches_restored == 1


class TestMulticastRebuild:
    def test_tree_reroutes_around_dead_link_and_still_delivers(self):
        sim, network = build_network()
        sinks = {}
        for name in ("h8", "h15"):
            sinks[name] = Sink(sim)
            network.host(name).register_protocol("test", sinks[name])
        group = network.create_multicast_group(9, "h0", ["h8", "h15"])
        victim = next(
            (a, b) for a, b in group.tree_edges
            if not a.startswith("h") and not b.startswith("h")
        )
        network.set_link_state(*victim, up=False)
        network.recompute_routes()
        rebuilt = network.multicast_group(9)
        assert frozenset(victim) not in {frozenset(e) for e in rebuilt.tree_edges}

        src = network.host("h0")
        src.send(Packet(protocol="test", src=src.node_id, dst=None,
                        multicast_group=9, size_bytes=1500))
        sim.run()
        assert all(len(sink.packets) == 1 for sink in sinks.values())

    def test_unreachable_receiver_keeps_old_tree(self):
        sim, network = build_network()
        group = network.create_multicast_group(9, "h0", ["h8"])
        old_edges = group.tree_edges
        rack = network.topology.host_rack("h8")
        network.set_link_state(rack, "h8", up=False)  # h8 unreachable
        network.recompute_routes()
        assert network.multicast_group(9).tree_edges == old_edges


class TestInjectorAccounting:
    def test_start_is_once_only(self):
        sim, network = build_network()
        injector = arm(sim, network, switch_down(0.0, "core0"))
        with pytest.raises(RuntimeError):
            injector.start()

    def test_stats_dict_shape_and_counts(self):
        sim, network = build_network()
        rack = network.topology.host_rack("h0")
        uplink = sorted(
            agg for agg in network.topology.graph.neighbors(rack) if agg.startswith("agg")
        )[0]
        injector = arm(
            sim, network,
            link_down(0.001, rack, uplink),
            link_up(0.002, rack, uplink),
            link_degrade(0.001, rack, "h0", 0.5),
            link_loss(0.001, rack, "h1", 0.2),
            switch_down(0.003, "core0"),
            switch_up(0.004, "core0"),
        )
        sim.run()
        stats = injector.stats_dict()
        assert stats["events_scheduled"] == stats["events_applied"] == 6
        assert stats["links_failed"] == stats["links_restored"] == 1
        assert stats["links_degraded"] == 1
        assert stats["links_lossy"] == 1
        assert stats["switches_failed"] == stats["switches_restored"] == 1
        assert stats["reroutes"] > 0
        for key in ("packets_dropped_link_down", "packets_dropped_random_loss",
                    "packets_dropped_switch_down"):
            assert stats[key] == 0  # no traffic was offered

    def test_events_beyond_the_time_cap_do_not_apply(self):
        sim, network = build_network()
        injector = arm(sim, network, switch_down(5.0, "core0"))
        sim.run(until=1.0)
        assert injector.events_applied == 0
        assert not network.switches["core0"].failed
