"""End-to-end tests of the assembled network (hosts + switches + routing)."""

import pytest

from repro.network.network import DATA_QUEUE_CAPACITY_PACKETS, Network, NetworkConfig
from repro.network.packet import Packet
from repro.network.queues import DropTailQueue, TrimmingQueue
from repro.network.routing import RoutingMode
from repro.network.topology import FatTreeTopology
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.trace import TraceLog
from repro.utils.units import MICROSECOND


class Sink:
    """A protocol endpoint that records deliveries."""

    def __init__(self, sim):
        self.sim = sim
        self.packets = []

    def handle_packet(self, packet):
        self.packets.append((self.sim.now, packet))


def build_network(seed=1, **config_overrides):
    sim = Simulator()
    topology = FatTreeTopology(4)
    config = NetworkConfig(**config_overrides)
    network = Network(sim, topology, config, RandomStreams(seed))
    return sim, network


class TestConstruction:
    def test_host_and_switch_counts(self):
        _, network = build_network()
        assert network.num_hosts == 16
        assert len(network.switches) == 20

    def test_host_lookup_by_name_and_id(self):
        _, network = build_network()
        host = network.host("h3")
        assert network.host(host.node_id) is host
        assert network.host_id("h3") == host.node_id

    def test_host_names_ordered_by_id(self):
        _, network = build_network()
        names = network.host_names
        assert names[0] == network.hosts[0].name
        assert len(names) == 16

    def test_invalid_switch_queue_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(switch_queue="magic")


class TestUnicastForwarding:
    def test_cross_pod_delivery_latency(self):
        sim, network = build_network()
        sink = Sink(sim)
        network.host("h15").register_protocol("test", sink)
        src = network.host("h0")
        src.send(Packet(protocol="test", src=src.node_id, dst=network.host_id("h15"),
                        size_bytes=1500))
        sim.run()
        assert len(sink.packets) == 1
        arrival_time, packet = sink.packets[0]
        # 6 hops x (12 us serialisation + 10 us propagation).
        assert arrival_time == pytest.approx(6 * 22 * MICROSECOND)
        assert packet.hops == 6

    def test_same_rack_delivery(self):
        sim, network = build_network()
        sink = Sink(sim)
        network.host("h1").register_protocol("test", sink)
        src = network.host("h0")
        src.send(Packet(protocol="test", src=src.node_id, dst=network.host_id("h1"),
                        size_bytes=1500))
        sim.run()
        assert sink.packets[0][1].hops == 2

    def test_unregistered_protocol_silently_dropped(self):
        sim = Simulator()
        trace = TraceLog(enabled=True)
        network = Network(sim, FatTreeTopology(4), NetworkConfig(), RandomStreams(1), trace=trace)
        sink = Sink(sim)
        network.host("h2").register_protocol("test", sink)
        src = network.host("h0")
        src.send(Packet(protocol="nobody", src=src.node_id, dst=network.host_id("h2"),
                        size_bytes=1500))
        sim.run()
        assert sink.packets == []
        [record] = trace.filter("host.no_protocol")
        assert record.details == {"host": "h2", "protocol": "nobody"}

    def test_spraying_uses_multiple_core_switches(self):
        sim, network = build_network(routing_mode=RoutingMode.PACKET_SPRAY)
        sink = Sink(sim)
        network.host("h15").register_protocol("test", sink)
        src = network.host("h0")
        for _ in range(64):
            src.send(Packet(protocol="test", src=src.node_id, dst=network.host_id("h15"),
                            size_bytes=1500))
        sim.run()
        cores_used = {
            name for name, switch in network.switches.items()
            if name.startswith("core") and switch.forwarded_packets > 0
        }
        assert len(cores_used) >= 3

    def test_ecmp_flow_uses_single_path_per_flow(self):
        sim, network = build_network(routing_mode=RoutingMode.ECMP_FLOW)
        sink = Sink(sim)
        network.host("h15").register_protocol("test", sink)
        src = network.host("h0")
        for _ in range(64):
            src.send(Packet(protocol="test", src=src.node_id, dst=network.host_id("h15"),
                            size_bytes=1500, flow_id=77))
        sim.run()
        cores_used = {
            name for name, switch in network.switches.items()
            if name.startswith("core") and switch.forwarded_packets > 0
        }
        assert len(cores_used) == 1


class TestMulticastForwarding:
    def test_every_member_receives_one_copy(self):
        sim, network = build_network()
        sinks = {}
        receivers = ["h4", "h8", "h12"]
        for name in receivers:
            sinks[name] = Sink(sim)
            network.host(name).register_protocol("test", sinks[name])
        network.create_multicast_group(9, "h0", receivers)
        src = network.host("h0")
        src.send(Packet(protocol="test", src=src.node_id, dst=None, multicast_group=9,
                        size_bytes=1500))
        sim.run()
        assert all(len(sinks[name].packets) == 1 for name in receivers)

    def test_non_member_does_not_receive(self):
        sim, network = build_network()
        member_sink, outsider_sink = Sink(sim), Sink(sim)
        network.host("h4").register_protocol("test", member_sink)
        network.host("h5").register_protocol("test", outsider_sink)
        network.create_multicast_group(9, "h0", ["h4"])
        src = network.host("h0")
        src.send(Packet(protocol="test", src=src.node_id, dst=None, multicast_group=9,
                        size_bytes=1500))
        sim.run()
        assert len(member_sink.packets) == 1
        assert len(outsider_sink.packets) == 0

    def test_duplicate_group_id_rejected(self):
        _, network = build_network()
        network.create_multicast_group(9, "h0", ["h4"])
        with pytest.raises(ValueError):
            network.create_multicast_group(9, "h1", ["h5"])

    def test_group_lookup(self):
        _, network = build_network()
        group = network.create_multicast_group(9, "h0", ["h4", "h8"])
        assert network.multicast_group(9) is group


class TestSwitchQueues:
    def test_every_switch_port_trims_at_the_fixed_data_depth(self):
        _, network = build_network()
        switch_ports = [
            port for (src, _), port in network.directed_ports.items()
            if src in network.switches
        ]
        assert switch_ports
        for port in switch_ports:
            assert isinstance(port.queue, TrimmingQueue)
            assert port.queue.data_capacity_packets == DATA_QUEUE_CAPACITY_PACKETS

    def test_host_nics_never_trim(self):
        _, network = build_network()
        for host in network.hosts:
            assert isinstance(host.nic.queue, DropTailQueue)


class TestAggregateStatistics:
    def test_trim_counters_aggregate(self):
        sim, network = build_network()
        sink = Sink(sim)
        network.host("h15").register_protocol("test", sink)
        # Three senders converge on one receiver link: the shallow data queue
        # at the receiver's rack switch must trim.
        senders = ["h0", "h4", "h8"]
        for name in senders:
            src = network.host(name)
            for _ in range(100):
                src.send(Packet(protocol="test", src=src.node_id,
                                dst=network.host_id("h15"), size_bytes=1500))
        sim.run()
        assert network.total_trimmed_packets > 0
        assert network.total_forwarded_packets > 0
        trimmed_deliveries = sum(1 for _, p in sink.packets if p.trimmed)
        full_deliveries = sum(1 for _, p in sink.packets if not p.trimmed)
        assert trimmed_deliveries > 0
        assert full_deliveries > 0
        # Trimming never loses a packet outright: every header still arrives.
        assert trimmed_deliveries + full_deliveries == 300
