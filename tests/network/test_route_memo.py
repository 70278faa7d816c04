"""The topology's healthy-route memo and the switches' copy-on-write tables.

A topology's healthy routing is computed once and shared read-only by every
routing table and switch built on it.  These tests pin down what sharing
must not change: the memo follows the graph, no run writes into it, the
changed-entry counts a reroute reports (the ``reroutes`` fault statistic)
are the ones the unshared tables reported, and networks on one topology
never see each other's reroutes.
"""

import copy

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.resilience import permutation_workload
from repro.experiments.runner import run_transfers
from repro.faults.schedule import (
    FaultSchedule,
    shared_risk_group_schedule,
    switch_down,
    switch_up,
)
from repro.network.network import Network, NetworkConfig
from repro.network.routing import RoutingTable, healthy_routes
from repro.network.topology import FatTreeTopology, NodeRole, shared_fattree, single_rack
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


def build_network(topology, seed=1):
    return Network(Simulator(), topology, NetworkConfig(), RandomStreams(seed))


def config(**overrides):
    return ExperimentConfig(
        fattree_k=4, num_foreground_transfers=4, object_bytes=48 * 1024,
        background_fraction=0.0, offered_load=0.33, seed=7, max_sim_time_s=10.0,
        **overrides,
    )


def tables(network):
    return {name: switch.unicast_next_hops() for name, switch in network.switches.items()}


class TestMemo:
    def test_computed_once_per_topology(self):
        topology = FatTreeTopology(4)
        routes = healthy_routes(topology)
        assert healthy_routes(topology) is routes
        assert RoutingTable(topology)._next_hops is routes.next_hops
        assert healthy_routes(FatTreeTopology(4)) is not routes
        assert healthy_routes(FatTreeTopology(4)) == routes

    def test_add_node_invalidates(self):
        topology = single_rack(3)
        before = healthy_routes(topology)
        topology.add_node("h3", NodeRole.HOST)
        after = healthy_routes(topology)
        assert after is not before
        assert after.hosts == ["h0", "h1", "h2", "h3"]
        assert "h3" not in after.next_hops["tor"]  # not linked yet

    def test_add_link_invalidates(self):
        topology = single_rack(3)
        topology.add_node("h3", NodeRole.HOST)
        before = healthy_routes(topology)
        topology.add_link("tor", "h3")
        after = healthy_routes(topology)
        assert after is not before
        assert after.next_hops["tor"]["h3"] == ("h3",)
        assert after.unicast_tables["tor"][3] == ("h3",)

    def test_shared_fattree_is_one_object_per_k(self):
        assert shared_fattree(4) is shared_fattree(4)
        assert shared_fattree(4) is not shared_fattree(6)
        assert shared_fattree(6).k == 6

    def test_switches_start_on_the_shared_tables(self):
        topology = FatTreeTopology(4)
        first, second = build_network(topology), build_network(topology)
        routes = healthy_routes(topology)
        for name in routes.switches:
            assert first.switches[name]._next_hops is routes.unicast_tables[name]
            assert second.switches[name]._next_hops is routes.unicast_tables[name]


class TestRunsLeaveTheMemoIntact:
    """Fault-heavy runs on a shared topology leave its healthy tables as built."""

    def test_srlg_switch_failure_and_convergence_lag(self):
        topology = FatTreeTopology(4)
        pristine = copy.deepcopy(healthy_routes(topology))
        rng = RandomStreams(3).stream("memo.faults")
        srlg = shared_risk_group_schedule(topology, rng, group_size=2, start_time=0.0,
                                          duration=0.002)
        core = FaultSchedule.ordered([switch_down(0.0005, "core0"), switch_up(0.0015, "core0")])
        runs = [
            (config(), srlg),
            (config(), core),
            (config(convergence_delay_s=50e-6), srlg.merged(core)),
        ]
        for protocol in (Protocol.POLYRAPTOR, Protocol.TCP):
            for config_, schedule in runs:
                result = run_transfers(protocol, config_,
                                       permutation_workload(config_, topology),
                                       topology=topology, fault_schedule=schedule)
                assert result.fault_stats["reroutes"] > 0
        assert healthy_routes(topology) == pristine
        assert healthy_routes(topology) == healthy_routes(FatTreeTopology(4))


#: ``replace_unicast_table`` counts per switch (zeros omitted) for the
#: scripted sequence below, recorded from the unshared implementation.
EXPECTED_COUNTS = [
    {"agg0_0": 2, "edge0_0": 14, "edge0_1": 2, "agg1_0": 2, "edge1_0": 2, "edge1_1": 2,
     "agg2_0": 2, "edge2_0": 2, "edge2_1": 2, "agg3_0": 2, "edge3_0": 2, "edge3_1": 2},
    {"core0": 16, "core1": 1, "core2": 1, "core3": 1, "agg0_0": 12, "agg0_1": 1,
     "edge0_0": 1, "edge0_1": 1, "agg1_0": 13, "agg1_1": 1, "edge1_0": 1, "edge1_1": 1,
     "agg2_0": 12, "agg2_1": 1, "edge2_0": 1, "edge2_1": 1, "agg3_0": 12, "agg3_1": 1,
     "edge3_0": 1, "edge3_1": 1},
    {"core0": 16, "core1": 1, "core2": 1, "core3": 1, "agg0_0": 14, "agg0_1": 1,
     "edge0_0": 14, "edge0_1": 3, "agg1_0": 13, "agg1_1": 1, "edge1_0": 3, "edge1_1": 3,
     "agg2_0": 12, "agg2_1": 1, "edge2_0": 3, "edge2_1": 3, "agg3_0": 12, "agg3_1": 1,
     "edge3_0": 3, "edge3_1": 3},
]


def fail_fail_restore(network):
    """Yield after each step of: link down; switch + host uplink down; all restored."""
    network.set_link_state("edge0_0", "agg0_0", up=False)
    yield
    network.set_switch_failed("core0", True)
    network.set_link_state("edge1_0", "h4", up=False)
    yield
    network.set_link_state("edge0_0", "agg0_0", up=True)
    network.set_switch_failed("core0", False)
    network.set_link_state("edge1_0", "h4", up=True)
    yield


class TestReplaceUnicastTable:
    def test_changed_counts_per_switch(self):
        network = build_network(FatTreeTopology(4))
        counts = []
        for _ in fail_fail_restore(network):
            table = network.routing_table
            table.rebuild(network.failed_edges, network.failed_switches)
            step = {
                name: switch.replace_unicast_table(table.unicast_table(name))
                for name, switch in network.switches.items()
            }
            counts.append({name: count for name, count in step.items() if count})
        assert counts == EXPECTED_COUNTS

    def test_reroute_totals(self):
        network = build_network(FatTreeTopology(4))
        totals = [network.recompute_routes() for _ in fail_fail_restore(network)]
        assert totals == [36, 80, 109]
        assert totals == [sum(step.values()) for step in EXPECTED_COUNTS]

    def test_a_change_installs_a_new_dict(self):
        topology = FatTreeTopology(4)
        network = build_network(topology)
        shared = healthy_routes(topology).unicast_tables["edge0_0"]
        pristine = dict(shared)
        switch = network.switches["edge0_0"]
        assert switch.replace_unicast_table(dict(shared)) == 0
        assert switch._next_hops is shared  # nothing changed, nothing copied
        assert switch.replace_unicast_table({15: ("agg0_1",)}) == 1
        assert switch._next_hops is not shared
        assert switch.next_hops_toward(15) == ("agg0_1",)
        assert switch.next_hops_toward(0) == shared[0]  # absent keys keep their entry
        assert shared == pristine

    def test_empty_entry_for_an_unknown_destination_is_not_a_change(self):
        switch = build_network(single_rack(2)).switches["tor"]
        assert switch.replace_unicast_table({99: ()}) == 0
        assert 99 not in switch.unicast_next_hops()


class TestMulticastFallback:
    def test_group_with_an_unreachable_receiver_gets_the_healthy_tree(self):
        topology = FatTreeTopology(4)
        healthy = build_network(topology).create_multicast_group(9, "h0", ["h8", "h15"])
        network = build_network(topology)
        network.set_link_state(topology.host_rack("h8"), "h8", up=False)
        network.recompute_routes()
        group = network.create_multicast_group(9, "h0", ["h8", "h15"])
        assert group.tree_edges == healthy.tree_edges
        assert network.routing_table.failed_edges  # the damaged table stays installed
        assert healthy_routes(topology) == healthy_routes(FatTreeTopology(4))


class TestNetworksOnOneTopology:
    def test_reroute_stays_private(self):
        topology = FatTreeTopology(4)
        first, second = build_network(topology), build_network(topology, seed=2)
        healthy = tables(second)
        steps = fail_fail_restore(first)
        next(steps)
        assert first.recompute_routes() == 36
        assert tables(second) == healthy
        assert tables(first) != healthy
        next(steps)
        first.recompute_routes()
        assert tables(second) == healthy
        # The second network reroutes around its own damage only.
        second.set_link_state("edge3_1", "agg3_1", up=False)
        assert second.recompute_routes() > 0
        next(steps)
        first.recompute_routes()
        assert tables(first) == healthy
        assert tables(second) != healthy
        assert all("agg3_1" not in hops
                   for hops in second.switches["edge3_1"].unicast_next_hops().values())
        assert healthy_routes(topology) == healthy_routes(FatTreeTopology(4))
