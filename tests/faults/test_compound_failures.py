"""Routing-rebuild coverage under *compound* failures.

PR 3's tests exercised single faults; these pin down the harder cases the
correlated failure models produce: a switch and one of its member links
failing in the same instant (the SRLG shape), recovery restoring the exact
pre-failure unicast tables and multicast trees, and a multicast tree being
rebuilt mid-transfer while symbols are in flight.
"""

import random

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.runner import run_transfers
from repro.faults.injector import FaultInjector
from repro.faults.schedule import (
    FaultSchedule,
    link_down,
    link_up,
    rack_power_schedule,
    shared_risk_group_schedule,
    switch_down,
    switch_up,
)
from repro.network.network import Network
from repro.network.topology import FatTreeTopology
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.utils.units import KILOBYTE
from repro.workloads.spec import TransferKind, TransferSpec

QUICK = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=4,
    object_bytes=48 * KILOBYTE,
    background_fraction=0.0,
    max_sim_time_s=20.0,
)


def build_network(seed=1):
    sim = Simulator()
    topology = FatTreeTopology(4)
    network = Network(sim, topology, streams=RandomStreams(seed))
    return sim, network


def full_tables(network):
    return {name: sw.unicast_next_hops() for name, sw in network.switches.items()}


def arm(sim, network, schedule):
    injector = FaultInjector(sim, network, schedule)
    injector.start()
    return injector


class TestSwitchPlusMemberLink:
    """A switch and one of its own links dying together (the SRLG shape)."""

    def test_single_recompute_and_consistent_tables(self):
        sim, network = build_network()
        schedule = FaultSchedule.ordered((
            switch_down(0.001, "agg0_0"),
            link_down(0.001, "agg0_0", "core0"),
            link_down(0.001, "agg0_0", "edge0_0"),
        ))
        injector = arm(sim, network, schedule)
        sim.run()
        assert injector.recomputes_requested == 1
        assert injector.route_installs == 1
        # No surviving switch routes via the dead aggregation switch.
        for name, table in full_tables(network).items():
            if name == "agg0_0":
                continue
            for hops in table.values():
                assert "agg0_0" not in hops

    def test_recovery_restores_exact_pre_failure_state(self):
        sim, network = build_network()
        before_tables = full_tables(network)
        group = network.create_multicast_group(5, "h0", ["h6", "h12"])
        before_tree = group.tree_edges
        before_group_ports = {
            name: sw.group_ports(5) for name, sw in network.switches.items()
        }
        schedule = FaultSchedule.ordered((
            switch_down(0.001, "agg0_0"),
            link_down(0.001, "agg0_1", "edge0_0"),
            link_up(0.002, "agg0_1", "edge0_0"),
            switch_up(0.002, "agg0_0"),
        ))
        injector = arm(sim, network, schedule)
        sim.run()
        after = full_tables(network)
        for name in before_tables:
            assert after[name] == before_tables[name], f"table drift on {name}"
        assert network.multicast_group(5).tree_edges == before_tree
        assert {
            name: sw.group_ports(5) for name, sw in network.switches.items()
        } == before_group_ports
        assert injector.recomputes_requested == 2
        assert network.failed_edges == frozenset()
        assert network.failed_switches == frozenset()

    def test_srlg_builder_recovery_restores_tables(self):
        sim, network = build_network()
        before = full_tables(network)
        schedule = shared_risk_group_schedule(
            network.topology, random.Random(3), group_size=3,
            start_time=0.0, duration=0.01,
        )
        arm(sim, network, schedule)
        sim.run()
        assert full_tables(network) == before
        # Each group wire flapped exactly once (down + recovery), both
        # directions of the full-duplex link.
        targets = {e.target for e in schedule.events if e.kind.value == "link_down"}
        for name_a, name_b in targets:
            assert network.link_between(name_a, name_b).flaps == 1
            assert network.link_between(name_b, name_a).flaps == 1

    def test_rack_power_recovery_restores_tables(self):
        sim, network = build_network()
        before = full_tables(network)
        schedule = rack_power_schedule(
            network.topology, random.Random(4), start_time=0.0, duration=0.01
        )
        injector = arm(sim, network, schedule)
        sim.run()
        assert full_tables(network) == before
        # Down batch (switch + host links) and recovery batch: one
        # recompute each, not one per event.
        assert injector.recomputes_requested == 2


class TestMulticastRebuildMidTransfer:
    """A replicated push survives its tree being rebuilt while in flight."""

    def _replicate_spec(self):
        return TransferSpec(
            transfer_id=1, kind=TransferKind.REPLICATE, client="h0",
            peers=("h6", "h12"), size_bytes=QUICK.object_bytes,
            start_time=0.0, label="foreground",
        )

    def test_tree_edge_dies_mid_transfer_and_transfer_completes(self):
        # ~48 KB at 1 Gbps needs ~0.4 ms; kill a fabric link at 0.15 ms --
        # squarely mid-transfer -- and restore it before the run ends.
        schedule = FaultSchedule.ordered((
            link_down(0.00015, "agg0_0", "edge0_0"),
            link_down(0.00015, "agg0_1", "edge0_0"),  # both rack uplinks...
            link_up(0.0008, "agg0_0", "edge0_0"),
            link_up(0.0008, "agg0_1", "edge0_0"),
        ))
        run = run_transfers(
            Protocol.POLYRAPTOR, QUICK, [self._replicate_spec()],
            fault_schedule=schedule,
        )
        assert run.completion_fraction == 1.0
        assert run.fault_stats["reroutes"] > 0
        assert run.fault_stats["route_installs"] == run.fault_stats["recomputes_requested"]

    def test_rack_power_mid_transfer_recovers(self):
        """The receivers' own rack loses power mid-transfer; the push must
        ride the recovery (symbols lost in the window are repaired)."""
        topology = FatTreeTopology(QUICK.fattree_k)
        # h6 lives in pod 1 -- fail that rack's ToR while the push runs.
        rack = topology.host_rack("h6")
        hosts = sorted(
            n for n in topology.graph.neighbors(rack)
            if topology.roles[n].value == "host"
        )
        schedule = FaultSchedule.ordered(
            tuple([switch_down(0.00015, rack)]
                  + [link_down(0.00015, rack, h) for h in hosts]
                  + [switch_up(0.0008, rack)]
                  + [link_up(0.0008, rack, h) for h in hosts])
        )
        run = run_transfers(
            Protocol.POLYRAPTOR, QUICK, [self._replicate_spec()],
            fault_schedule=schedule,
        )
        assert run.completion_fraction == 1.0
        stats = run.fault_stats
        assert stats["switches_failed"] == stats["switches_restored"] == 1
        assert stats["links_failed"] == len(hosts)


class TestStartupInsideDeadRack:
    """A sender whose rack is dark at session start must still deliver.

    The receiver-side stall timer only exists once the receiver has learned
    of the session; if the whole initial window dies on the sender's dead
    access link, only the sender's startup probing (capped-backoff unicast
    re-probes) can unblock the transfer.  This deadlocked before startup
    probing existed: the rack_power model exposed it.
    """

    def test_transfer_started_during_rack_outage_completes(self):
        from repro.experiments.runner import build_environment, offer_transfers

        topology = FatTreeTopology(QUICK.fattree_k)
        rack = topology.host_rack("h0")
        hosts = sorted(
            n for n in topology.graph.neighbors(rack)
            if topology.roles[n].value == "host"
        )
        # Rack dies before the transfer starts and recovers well after the
        # startup window would have drained.
        schedule = FaultSchedule.ordered(
            tuple([switch_down(0.0001, rack)]
                  + [link_down(0.0001, rack, h) for h in hosts]
                  + [switch_up(0.004, rack)]
                  + [link_up(0.004, rack, h) for h in hosts])
        )
        spec = TransferSpec(
            transfer_id=1, kind=TransferKind.UNICAST, client="h0",
            peers=("h15",), size_bytes=QUICK.object_bytes, start_time=0.0002,
            label="foreground",
        )
        env = build_environment(Protocol.POLYRAPTOR, QUICK, topology=topology,
                                fault_schedule=schedule)
        offer_transfers(env, Protocol.POLYRAPTOR, [spec])
        env.sim.run(until=QUICK.max_sim_time_s)
        assert env.registry.completion_fraction() == 1.0
        session = env.polyraptor_agents["h0"].sender_session(1).core
        assert session.startup_retries > 0  # the probes did the unblocking

    def test_multicast_push_with_one_dark_receiver_still_completes(self):
        """Per-receiver probing: a healthy group member's pulls must not
        cancel the probing that the dark member still needs.  (The first
        implementation stopped the timer on any pull -- the multicast
        session then waited forever for the receiver that never heard of
        it.)"""
        from repro.experiments.runner import build_environment, offer_transfers

        topology = FatTreeTopology(QUICK.fattree_k)
        rack = topology.host_rack("h6")  # h6's rack dies; h12 stays healthy
        hosts = sorted(
            n for n in topology.graph.neighbors(rack)
            if topology.roles[n].value == "host"
        )
        schedule = FaultSchedule.ordered(
            tuple([switch_down(0.0001, rack)]
                  + [link_down(0.0001, rack, h) for h in hosts]
                  + [switch_up(0.004, rack)]
                  + [link_up(0.004, rack, h) for h in hosts])
        )
        spec = TransferSpec(
            transfer_id=1, kind=TransferKind.REPLICATE, client="h0",
            peers=("h6", "h12"), size_bytes=QUICK.object_bytes, start_time=0.0002,
            label="foreground",
        )
        env = build_environment(Protocol.POLYRAPTOR, QUICK, topology=topology,
                                fault_schedule=schedule)
        offer_transfers(env, Protocol.POLYRAPTOR, [spec])
        env.sim.run(until=QUICK.max_sim_time_s)
        assert env.registry.completion_fraction() == 1.0
        assert env.polyraptor_agents["h0"].sender_session(1).core.startup_retries > 0

    def test_a_healthy_run_never_probes(self):
        from repro.experiments.runner import build_environment, offer_transfers

        spec = TransferSpec(
            transfer_id=1, kind=TransferKind.UNICAST, client="h0",
            peers=("h15",), size_bytes=QUICK.object_bytes, start_time=0.0,
            label="foreground",
        )
        env = build_environment(Protocol.POLYRAPTOR, QUICK)
        offer_transfers(env, Protocol.POLYRAPTOR, [spec])
        env.sim.run(until=QUICK.max_sim_time_s)
        # Every receiver pulls before the first startup timer fires.
        assert env.registry.completion_fraction() == 1.0
        assert env.polyraptor_agents["h0"].sender_session(1).core.startup_retries == 0


class TestCompoundUnderConvergenceDelay:
    def test_compound_failure_with_lag_black_holes_then_reroutes(self):
        config = ExperimentConfig(
            fattree_k=4, num_foreground_transfers=4, object_bytes=48 * KILOBYTE,
            background_fraction=0.0, max_sim_time_s=20.0,
            convergence_delay_s=0.0003,
        )
        schedule = FaultSchedule.ordered((
            switch_down(0.0001, "agg0_0"),
            link_down(0.0001, "agg0_0", "edge0_0"),
            switch_up(0.001, "agg0_0"),
            link_up(0.001, "agg0_0", "edge0_0"),
        ))
        spec = TransferSpec(
            transfer_id=1, kind=TransferKind.UNICAST, client="h0",
            peers=("h15",), size_bytes=48 * KILOBYTE, start_time=0.0,
            label="foreground",
        )
        run = run_transfers(Protocol.POLYRAPTOR, config, [spec], fault_schedule=schedule)
        assert run.completion_fraction == 1.0
        stats = run.fault_stats
        assert stats["recomputes_requested"] == 2
        assert stats["route_installs"] == 2  # both converged before the end
        # Packets black-holed by the stale tables during the lag windows.
        assert stats["packets_dropped_switch_down"] + stats["packets_dropped_link_down"] > 0


@pytest.mark.parametrize("jobs", [1, 4])
def test_compound_schedules_shard_identically(jobs):
    """Compound (SRLG + rack + gray) jobs are byte-identical for any --jobs N.

    The sequential jobs=1 pass is the reference; the parametrised run must
    reproduce its per-transfer metrics and fault counters exactly.
    """
    from repro.experiments.correlated import expand_correlated_sweep
    from repro.experiments.parallel import execute_jobs

    sweep = expand_correlated_sweep(
        QUICK, srlg_sizes=(2,), gray_rates=(0.05,), convergence_delays=(0.0005,),
        protocols=(Protocol.POLYRAPTOR, Protocol.TCP), num_seeds=1,
    )
    reference = execute_jobs(sweep, num_workers=1)
    runs = execute_jobs(sweep, num_workers=jobs)
    for ref, run in zip(reference, runs):
        assert ref.fault_stats == run.fault_stats
        assert ref.events_processed == run.events_processed
        assert [
            (r.transfer_id, r.start_time, r.completion_time) for r in ref.registry.records
        ] == [
            (r.transfer_id, r.start_time, r.completion_time) for r in run.registry.records
        ]
