"""Tests for routing tables and next-hop selection."""

import random

import pytest

from repro.network.routing import RoutingMode, RoutingTable, select_next_hop, stable_hash
from repro.network.topology import FatTreeTopology, LeafSpineTopology, NodeRole, single_rack


@pytest.fixture(scope="module")
def fattree_routing():
    topology = FatTreeTopology(4)
    return topology, RoutingTable(topology)


class TestRoutingTable:
    def test_edge_switch_single_hop_to_local_host(self, fattree_routing):
        topology, table = fattree_routing
        rack = topology.host_rack("h0")
        assert table.next_hops(rack, "h0") == ("h0",)

    def test_edge_switch_has_multiple_uplinks_to_remote_host(self, fattree_routing):
        topology, table = fattree_routing
        rack = topology.host_rack("h0")
        remote = "h15"
        hops = table.next_hops(rack, remote)
        assert len(hops) == 2  # k/2 aggregation switches
        assert all(hop.startswith("agg") for hop in hops)

    def test_unknown_route_raises(self, fattree_routing):
        _, table = fattree_routing
        with pytest.raises(KeyError):
            table.next_hops("edge0_0", "not-a-host")

    def test_path_is_valid_shortest_path(self, fattree_routing):
        topology, table = fattree_routing
        path = table.path("h0", "h15")
        assert path[0] == "h0" and path[-1] == "h15"
        for a, b in zip(path, path[1:]):
            assert topology.graph.has_edge(a, b)
        # Inter-pod paths in a fat-tree have 6 edges (host-edge-agg-core-agg-edge-host).
        assert len(path) == 7

    def test_path_same_host(self, fattree_routing):
        _, table = fattree_routing
        assert table.path("h0", "h0") == ["h0"]

    def test_different_tie_breaks_can_take_different_paths(self, fattree_routing):
        _, table = fattree_routing
        paths = {tuple(table.path("h0", "h15", tie_break=t)) for t in range(8)}
        assert len(paths) >= 2

    def test_intra_rack_path_length(self, fattree_routing):
        _, table = fattree_routing
        path = table.path("h0", "h1")
        assert len(path) == 3  # host - edge - host


class TestRoutingRebuild:
    def test_rebuild_without_failures_restores_original_table(self):
        topology = FatTreeTopology(4)
        table = RoutingTable(topology)
        rack = topology.host_rack("h0")
        original = {
            (switch, host): table.next_hops_or_empty(switch, host)
            for switch in topology.switches
            for host in topology.hosts
        }
        table.rebuild(failed_edges=[(rack, "agg0_0")], failed_nodes=["core0"])
        assert table.next_hops(rack, "h15") == ("agg0_1",)
        table.rebuild()
        restored = {
            (switch, host): table.next_hops_or_empty(switch, host)
            for switch in topology.switches
            for host in topology.hosts
        }
        assert restored == original

    def test_failed_edge_removes_hop(self):
        topology = FatTreeTopology(4)
        table = RoutingTable(topology)
        rack = topology.host_rack("h0")
        assert len(table.next_hops(rack, "h15")) == 2
        table.rebuild(failed_edges=[(rack, "agg0_0")])
        assert table.next_hops(rack, "h15") == ("agg0_1",)

    def test_failed_node_has_no_entries_and_is_avoided(self):
        topology = FatTreeTopology(4)
        table = RoutingTable(topology, failed_nodes=["agg0_0"])
        assert table.next_hops_or_empty("agg0_0", "h15") == ()
        rack = topology.host_rack("h0")
        assert table.next_hops(rack, "h15") == ("agg0_1",)

    def test_unreachable_host_yields_empty_set_not_raise(self):
        topology = FatTreeTopology(4)
        rack = topology.host_rack("h0")
        table = RoutingTable(topology, failed_edges=[(rack, "h0")])
        assert table.next_hops_or_empty(rack, "h0") == ()

    def test_path_avoids_failed_equipment(self):
        topology = FatTreeTopology(4)
        table = RoutingTable(topology, failed_nodes=["agg0_0"])
        for tie_break in range(4):
            assert "agg0_0" not in table.path("h0", "h15", tie_break=tie_break)

    def test_path_raises_for_host_with_dead_uplink(self):
        topology = FatTreeTopology(4)
        rack = topology.host_rack("h0")
        table = RoutingTable(topology, failed_edges=[(rack, "h0")])
        with pytest.raises(KeyError):
            table.path("h0", "h15")


def oracle_routes(topology, failed_edges, failed_nodes):
    """Brute force: one BFS per *host* over the surviving graph, no rack shortcut."""
    dead = {frozenset(edge) for edge in failed_edges}
    adj = {
        node: [n for n in topology.graph.neighbors(node)
               if n not in failed_nodes and frozenset((node, n)) not in dead]
        for node in topology.graph.nodes if node not in failed_nodes
    }
    table = {}
    for host in topology.hosts:
        distance, frontier = {host: 0}, [host]
        while frontier:
            node = frontier.pop(0)
            for n in adj[node]:
                if n not in distance:
                    distance[n] = distance[node] + 1
                    frontier.append(n)
        for switch in topology.switches:
            if switch in distance:
                table[switch, host] = tuple(sorted(
                    n for n in adj[switch] if distance.get(n) == distance[switch] - 1))
    return adj, table


def oracle_path(adj, table, src, dst, tie_break):
    """``RoutingTable.path``'s contract, walked over the oracle table."""
    if src == dst:
        return [src]
    if not adj.get(src):
        raise KeyError(src)
    path = [src, adj[src][0]]
    while path[-1] != dst:
        hops = table[path[-1], dst]
        path.append(dst if dst in hops else hops[(tie_break + len(path)) % len(hops)])
    return path


class TestRoutingOracle:
    """Per-rack routing equals per-host all-pairs BFS under random damage."""

    @pytest.mark.parametrize(
        "topology",
        [FatTreeTopology(4), FatTreeTopology(6), LeafSpineTopology(4, 3, 4), single_rack(5)],
        ids=lambda topology: topology.name,
    )
    def test_matches_brute_force_under_failures(self, topology):
        rng = random.Random(topology.name)
        hosts, switches = topology.hosts, topology.switches
        is_host = {name: topology.roles[name] is NodeRole.HOST for name in topology.roles}
        uplinks = [edge for edge in topology.graph.edges if is_host[edge[0]] or is_host[edge[1]]]
        fabric = [edge for edge in topology.graph.edges if edge not in uplinks]
        table = RoutingTable(topology)
        original = {(s, h): table.next_hops_or_empty(s, h) for s in switches for h in hosts}
        assert original == oracle_routes(topology, (), ())[1]
        for _ in range(300):
            failed_edges = (rng.sample(fabric, rng.randint(0, min(6, len(fabric))))
                            + rng.sample(uplinks, rng.randint(0, 2)))
            failed_nodes = rng.sample(switches, rng.randint(0, min(2, len(switches) - 1)))
            table.rebuild(failed_edges, failed_nodes)
            adj, expected = oracle_routes(topology, failed_edges, failed_nodes)
            for switch in switches:
                for host in hosts:
                    assert table.next_hops_or_empty(switch, host) == expected.get(
                        (switch, host), ()), (switch, host, failed_edges, failed_nodes)
            pairs = [(rng.choice(hosts), rng.choice(hosts)) for _ in range(8)]
            pairs += [(edge[1], rng.choice(hosts)) for edge in failed_edges if is_host[edge[1]]]
            for src, dst in pairs:
                for tie_break in range(3):
                    try:
                        want = oracle_path(adj, expected, src, dst, tie_break)
                    except KeyError:
                        with pytest.raises(KeyError):
                            table.path(src, dst, tie_break)
                    else:
                        assert table.path(src, dst, tie_break) == want
        table.rebuild()
        assert {(s, h): table.next_hops_or_empty(s, h) for s in switches for h in hosts} == original


class TestNextHopSelection:
    def test_single_hop_shortcut(self):
        assert select_next_hop(RoutingMode.PACKET_SPRAY, ("a",), 1, 2, 3, 4) == "a"

    def test_empty_hops_rejected(self):
        with pytest.raises(ValueError):
            select_next_hop(RoutingMode.ECMP_FLOW, (), 1, 2, 3, 4)

    def test_single_path_mode_always_first(self):
        hops = ("a", "b", "c")
        for draw in range(10):
            assert select_next_hop(RoutingMode.SINGLE_PATH, hops, draw, 0, 1, draw) == "a"

    def test_ecmp_consistent_per_flow(self):
        hops = ("a", "b", "c", "d")
        choices = {
            select_next_hop(RoutingMode.ECMP_FLOW, hops, 42, 1, 2, draw) for draw in range(20)
        }
        assert len(choices) == 1

    def test_ecmp_spreads_across_flows(self):
        hops = ("a", "b", "c", "d")
        choices = {
            select_next_hop(RoutingMode.ECMP_FLOW, hops, flow, 1, 2, 0) for flow in range(200)
        }
        assert choices == set(hops)

    def test_spray_uses_draw(self):
        hops = ("a", "b", "c", "d")
        rng = random.Random(0)
        counts = {hop: 0 for hop in hops}
        for _ in range(400):
            hop = select_next_hop(RoutingMode.PACKET_SPRAY, hops, 7, 1, 2, rng.getrandbits(30))
            counts[hop] += 1
        assert min(counts.values()) > 50  # roughly uniform

    def test_stable_hash_deterministic(self):
        assert stable_hash(1, 2, 3) == stable_hash(1, 2, 3)
        assert stable_hash(1, 2, 3) != stable_hash(3, 2, 1)
