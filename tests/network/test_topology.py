"""Tests for topology generators."""

import pytest

from repro.network.topology import (
    FatTreeTopology,
    LeafSpineTopology,
    NodeRole,
    Topology,
    single_rack,
)


class TestFatTree:
    @pytest.mark.parametrize("k,hosts,switches", [(2, 2, 5), (4, 16, 20), (6, 54, 45)])
    def test_node_counts(self, k, hosts, switches):
        topo = FatTreeTopology(k)
        assert topo.num_hosts == hosts == k ** 3 // 4
        assert len(topo.switches) == switches == 5 * k * k // 4

    def test_host_degree_is_one(self):
        topo = FatTreeTopology(4)
        for host in topo.hosts:
            assert topo.graph.degree[host] == 1

    def test_switch_degree_is_k(self):
        topo = FatTreeTopology(4)
        for switch in topo.switches:
            assert topo.graph.degree[switch] == 4

    def test_rejects_odd_or_small_k(self):
        with pytest.raises(ValueError):
            FatTreeTopology(3)
        with pytest.raises(ValueError):
            FatTreeTopology(0)

    def test_roles_assigned(self):
        topo = FatTreeTopology(4)
        roles = set(topo.roles.values())
        assert roles == {NodeRole.HOST, NodeRole.EDGE, NodeRole.AGGREGATION, NodeRole.CORE}

    def test_with_at_least_hosts(self):
        topo = FatTreeTopology.with_at_least_hosts(250)
        assert topo.k == 10
        assert topo.num_hosts == 250

    def test_host_rack_and_rackmates(self):
        topo = FatTreeTopology(4)
        rack = topo.host_rack("h0")
        assert topo.roles[rack] is NodeRole.EDGE
        rackmates = topo.hosts_in_same_rack("h0")
        assert "h0" in rackmates
        assert len(rackmates) == 2  # k/2 hosts per edge switch

    def test_host_rack_rejects_switch(self):
        topo = FatTreeTopology(4)
        with pytest.raises(KeyError):
            topo.host_rack("core0")


class TestLeafSpine:
    def test_counts(self):
        topo = LeafSpineTopology(num_leaves=4, num_spines=2, hosts_per_leaf=8)
        assert topo.num_hosts == 32
        assert len(topo.switches) == 6

    def test_every_leaf_connects_to_every_spine(self):
        topo = LeafSpineTopology(3, 2, 4)
        for leaf_index in range(3):
            neighbours = set(topo.graph.neighbors(f"leaf{leaf_index}"))
            assert {"spine0", "spine1"} <= neighbours

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            LeafSpineTopology(0, 1, 1)


class TestEdgeOrder:
    """``graph.edges`` order is what link wiring and the golden fingerprints inherit."""

    def test_fattree_first_edges(self):
        assert FatTreeTopology(4).graph.edges[:8] == [
            ("core0", "agg0_0"), ("core0", "agg1_0"), ("core0", "agg2_0"), ("core0", "agg3_0"),
            ("core1", "agg0_0"), ("core1", "agg1_0"), ("core1", "agg2_0"), ("core1", "agg3_0"),
        ]

    def test_leafspine_first_edges(self):
        assert LeafSpineTopology(2, 2, 2).graph.edges[:8] == [
            ("spine0", "leaf0"), ("spine0", "leaf1"), ("spine1", "leaf0"), ("spine1", "leaf1"),
            ("leaf0", "h0"), ("leaf0", "h1"), ("leaf1", "h2"), ("leaf1", "h3"),
        ]

    @pytest.mark.parametrize(
        "topo", [FatTreeTopology(4), LeafSpineTopology(2, 2, 2), single_rack(3)],
        ids=lambda topo: topo.name,
    )
    def test_each_link_once_from_earlier_inserted_endpoint(self, topo):
        position = {name: index for index, name in enumerate(topo.graph.nodes)}
        edges = topo.graph.edges
        assert all(position[a] < position[b] for a, b in edges)
        assert len({frozenset(edge) for edge in edges}) == len(edges)
        assert 2 * len(edges) == sum(topo.graph.degree.values())
        # node-major: the earlier endpoints appear in insertion order
        assert [position[a] for a, _ in edges] == sorted(position[a] for a, _ in edges)


class TestSingleRackAndValidation:
    def test_single_rack(self):
        topo = single_rack(6)
        assert topo.num_hosts == 6
        assert len(topo.switches) == 1

    def test_single_rack_too_small(self):
        with pytest.raises(ValueError):
            single_rack(1)

    def test_validate_rejects_disconnected(self):
        topo = Topology("broken")
        topo.add_node("a", NodeRole.HOST)
        topo.add_node("b", NodeRole.HOST)
        with pytest.raises(ValueError):
            topo.validate()

    def test_validate_rejects_multihomed_host(self):
        topo = Topology("multihomed")
        topo.add_node("s1", NodeRole.EDGE)
        topo.add_node("s2", NodeRole.EDGE)
        topo.add_node("h", NodeRole.HOST)
        topo.add_link("s1", "s2")
        topo.add_link("h", "s1")
        topo.add_link("h", "s2")
        with pytest.raises(ValueError):
            topo.validate()

    def test_add_link_requires_existing_nodes(self):
        topo = Topology("t")
        topo.add_node("a", NodeRole.HOST)
        with pytest.raises(KeyError):
            topo.add_link("a", "missing")
