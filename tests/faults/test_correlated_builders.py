"""Tests for the correlated failure-model builders (SRLG, rack power, gray).

The builders are pure functions of (topology, seeded rng, arguments): these
tests pin down the correlated *shape* of each model -- SRLG links die in one
same-instant batch anchored at one switch, a rack takes its ToR and every
host link with it, gray failures never touch topology -- plus the up-front
argument validation and seeded determinism the sharded sweep relies on.
"""

import random

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.schedule import (
    FaultKind,
    fabric_edges,
    gray_failure_schedule,
    rack_power_schedule,
    random_fault_schedule,
    shared_risk_group_schedule,
)
from repro.network.network import Network
from repro.network.topology import FatTreeTopology, NodeRole
from repro.sim.engine import Simulator


@pytest.fixture(scope="module")
def topology():
    return FatTreeTopology(4)


class TestSharedRiskGroupSchedule:
    def test_group_fails_and_recovers_as_one_batch(self, topology):
        schedule = shared_risk_group_schedule(topology, random.Random(1), group_size=3)
        downs = [e for e in schedule if e.kind is FaultKind.LINK_DOWN]
        ups = [e for e in schedule if e.kind is FaultKind.LINK_UP]
        assert len(downs) == len(ups) == 3
        assert len({e.time for e in downs}) == 1  # one same-instant batch
        assert len({e.time for e in ups}) == 1
        assert downs[0].time < ups[0].time
        assert {e.target for e in downs} == {e.target for e in ups}

    def test_group_links_share_an_anchor_switch(self, topology):
        schedule = shared_risk_group_schedule(topology, random.Random(2), group_size=4)
        downs = [e for e in schedule if e.kind is FaultKind.LINK_DOWN]
        anchors = set(downs[0].target)
        for event in downs[1:]:
            anchors &= set(event.target)
        assert anchors  # at least one switch appears in every group link

    def test_groups_are_disjoint(self, topology):
        schedule = shared_risk_group_schedule(
            topology, random.Random(3), group_size=2, num_groups=3
        )
        downs = [e for e in schedule if e.kind is FaultKind.LINK_DOWN]
        assert len(downs) == 6
        assert len({e.target for e in downs}) == 6  # no link in two groups

    def test_all_events_tagged_srlg(self, topology):
        schedule = shared_risk_group_schedule(topology, random.Random(4), group_size=2)
        assert {e.cause for e in schedule} == {"srlg"}
        for event in schedule:
            for name in event.target:
                assert topology.roles[name] is not NodeRole.HOST

    def test_same_seed_same_schedule(self, topology):
        one = shared_risk_group_schedule(topology, random.Random(7), 3, num_groups=2)
        two = shared_risk_group_schedule(topology, random.Random(7), 3, num_groups=2)
        assert one == two
        assert one != shared_risk_group_schedule(topology, random.Random(8), 3, num_groups=2)

    def test_validation_up_front(self, topology):
        rng = random.Random(1)
        with pytest.raises(ValueError, match="group_size"):
            shared_risk_group_schedule(topology, rng, group_size=0)
        with pytest.raises(ValueError, match="num_groups"):
            shared_risk_group_schedule(topology, rng, group_size=2, num_groups=0)
        with pytest.raises(ValueError, match="start_time"):
            shared_risk_group_schedule(topology, rng, group_size=2, start_time=-1.0)
        with pytest.raises(ValueError, match="duration"):
            shared_risk_group_schedule(topology, rng, group_size=2, duration=0.0)
        # k=4: an aggregation switch touches 2 edge + 2 core links = 4 max.
        with pytest.raises(ValueError, match="largest shared-risk set"):
            shared_risk_group_schedule(topology, rng, group_size=99)

    def test_too_many_disjoint_groups_rejected(self, topology):
        with pytest.raises(ValueError, match="disjoint shared-risk groups"):
            shared_risk_group_schedule(
                topology, random.Random(1), group_size=4, num_groups=99
            )

    def test_events_fall_in_window(self, topology):
        schedule = shared_risk_group_schedule(
            topology, random.Random(5), 2, start_time=3.0, duration=2.0
        )
        for event in schedule:
            assert 3.0 <= event.time <= 5.0


class TestRackPowerSchedule:
    def test_tor_and_all_host_links_fail_as_a_unit(self, topology):
        schedule = rack_power_schedule(topology, random.Random(1))
        down_switch = [e for e in schedule if e.kind is FaultKind.SWITCH_DOWN]
        assert len(down_switch) == 1
        tor = down_switch[0].target[0]
        assert topology.roles[tor] is NodeRole.EDGE
        rack_hosts = [
            n for n in topology.graph.neighbors(tor)
            if topology.roles[n] is NodeRole.HOST
        ]
        downs = [e for e in schedule if e.kind is FaultKind.LINK_DOWN]
        assert {e.target for e in downs} == {(tor, host) for host in sorted(rack_hosts)}
        # The whole unit dies at one instant and recovers at one instant.
        assert len({e.time for e in downs + down_switch}) == 1
        ups = [e for e in schedule
               if e.kind in (FaultKind.LINK_UP, FaultKind.SWITCH_UP)]
        assert len({e.time for e in ups}) == 1
        assert {e.cause for e in schedule} == {"rack_power"}

    def test_multiple_racks_are_distinct(self, topology):
        schedule = rack_power_schedule(topology, random.Random(2), num_racks=3)
        tors = [e.target[0] for e in schedule if e.kind is FaultKind.SWITCH_DOWN]
        assert len(tors) == len(set(tors)) == 3

    def test_validation_up_front(self, topology):
        rng = random.Random(1)
        with pytest.raises(ValueError, match="num_racks"):
            rack_power_schedule(topology, rng, num_racks=0)
        with pytest.raises(ValueError, match="only"):
            rack_power_schedule(topology, rng, num_racks=99)
        with pytest.raises(ValueError, match="duration"):
            rack_power_schedule(topology, rng, duration=-1.0)


class TestGrayFailureSchedule:
    def test_loss_smeared_across_many_links_and_cleared(self, topology):
        schedule = gray_failure_schedule(
            topology, random.Random(1), loss_probability=0.02, affected_fraction=0.5
        )
        onsets = [e for e in schedule
                  if e.kind is FaultKind.LINK_LOSS and e.severity > 0]
        clears = [e for e in schedule
                  if e.kind is FaultKind.LINK_LOSS and e.severity == 0.0]
        assert len(onsets) == len(clears) == round(0.5 * len(fabric_edges(topology)))
        assert all(e.severity == 0.02 for e in onsets)
        assert {e.target for e in onsets} == {e.target for e in clears}
        # Smeared, not struck: onsets are spread over distinct times.
        assert len({e.time for e in onsets}) > 1

    def test_no_topology_events_so_routing_never_reacts(self, topology):
        schedule = gray_failure_schedule(
            topology, random.Random(2), 0.05, degrade_to=0.85
        )
        counts = schedule.counts()
        assert counts["link_down"] == counts["link_up"] == 0
        assert counts["switch_down"] == counts["switch_up"] == 0
        assert counts["link_degrade"] > 0

    def test_optional_degrade_rides_the_same_links(self, topology):
        schedule = gray_failure_schedule(
            topology, random.Random(3), 0.02, affected_fraction=0.25, degrade_to=0.9
        )
        lossy = {e.target for e in schedule if e.kind is FaultKind.LINK_LOSS}
        degraded = {e.target for e in schedule if e.kind is FaultKind.LINK_DEGRADE}
        assert degraded == lossy

    def test_validation_up_front(self, topology):
        rng = random.Random(1)
        with pytest.raises(ValueError, match="loss_probability"):
            gray_failure_schedule(topology, rng, 0.0)  # a no-op gray failure
        with pytest.raises(ValueError, match="loss_probability"):
            gray_failure_schedule(topology, rng, 1.5)
        with pytest.raises(ValueError, match="affected_fraction"):
            gray_failure_schedule(topology, rng, 0.1, affected_fraction=0.0)
        with pytest.raises(ValueError, match="degrade_to"):
            gray_failure_schedule(topology, rng, 0.1, degrade_to=1.0)  # no-op degrade
        with pytest.raises(ValueError, match="start_time"):
            gray_failure_schedule(topology, rng, 0.1, start_time=-0.5)

    def test_same_seed_same_schedule(self, topology):
        one = gray_failure_schedule(topology, random.Random(9), 0.03)
        two = gray_failure_schedule(topology, random.Random(9), 0.03)
        assert one == two


class TestExistingBuildersValidateWindows:
    """The satellite fix: every builder rejects bad windows up front."""

    def test_random_fault_schedule_rejects_negative_start(self, topology):
        with pytest.raises(ValueError, match="start_time"):
            random_fault_schedule(topology, random.Random(1), 0.5, start_time=-1.0)


class TestCauseCounters:
    def test_injector_attributes_events_to_builders(self, topology):
        sim = Simulator()
        network = Network(sim, topology)
        schedule = shared_risk_group_schedule(
            topology, random.Random(1), group_size=2, start_time=0.0, duration=0.01
        ).merged(
            gray_failure_schedule(
                topology, random.Random(2), 0.5, affected_fraction=0.1,
                start_time=0.0, duration=0.01,
            )
        )
        injector = FaultInjector(sim, network, schedule)
        injector.start()
        sim.run()
        stats = injector.stats_dict()
        assert stats["cause_srlg"] == 4  # 2 links down + 2 links up
        assert stats["cause_gray"] == stats["links_lossy"] * 2
        assert stats["events_applied"] == stats["cause_srlg"] + stats["cause_gray"]


class TestGrayDegradeObservability:
    def test_degraded_ports_rise_mid_window_and_clear(self, topology):
        sim = Simulator()
        network = Network(sim, topology)
        schedule = gray_failure_schedule(
            topology, random.Random(5), 0.02, affected_fraction=0.25,
            degrade_to=0.85, start_time=0.0, duration=0.01,
        )
        injector = FaultInjector(sim, network, schedule)
        injector.start()
        assert network.degraded_ports == 0
        sim.run(until=0.005)  # mid-window: onsets applied, clears pending
        assert network.degraded_ports > 0
        # Gray targets are fabric (switch-to-switch) links, so both
        # directed ports exist and report the degrade.
        name_a, name_b = next(
            e.target for e in schedule.events
            if e.kind.value == "link_degrade" and e.severity < 1.0
        )
        assert network.switches[name_a].port_to(name_b).is_degraded
        assert network.switches[name_b].port_to(name_a).is_degraded
        sim.run()  # every gray link restored by the end of the window
        assert network.degraded_ports == 0
