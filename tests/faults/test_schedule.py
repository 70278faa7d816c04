"""Tests for declarative fault schedules and the seeded random generator."""

import pickle
import random

import pytest

from repro.faults.schedule import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    fabric_edges,
    link_degrade,
    link_down,
    link_loss,
    link_up,
    random_fault_schedule,
    switch_down,
)
from repro.network.topology import FatTreeTopology, NodeRole


class TestFaultEvent:
    def test_link_constructors_target_two_nodes(self):
        event = link_down(0.5, "agg0_0", "core0")
        assert event.kind is FaultKind.LINK_DOWN
        assert event.target == ("agg0_0", "core0")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            link_up(-0.1, "a", "b")

    def test_link_kinds_require_two_targets(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.LINK_DOWN, ("only-one",))
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.SWITCH_DOWN, ("a", "b"))

    def test_degrade_severity_must_be_rate_fraction(self):
        assert link_degrade(0.0, "a", "b", 0.5).severity == 0.5
        with pytest.raises(ValueError):
            link_degrade(0.0, "a", "b", 0.0)
        with pytest.raises(ValueError):
            link_degrade(0.0, "a", "b", 1.5)

    def test_loss_severity_must_be_probability(self):
        assert link_loss(0.0, "a", "b", 0.0).severity == 0.0
        with pytest.raises(ValueError):
            link_loss(0.0, "a", "b", 1.01)


class TestFaultSchedule:
    def test_ordered_sorts_out_of_order_events(self):
        schedule = FaultSchedule.ordered(
            (link_up(2.0, "a", "b"), link_down(1.0, "a", "b"), switch_down(0.5, "s"))
        )
        assert [event.time for event in schedule] == [0.5, 1.0, 2.0]
        assert schedule.last_time == 2.0

    def test_constructor_rejects_out_of_order_events(self):
        with pytest.raises(ValueError, match="non-decreasing time order"):
            FaultSchedule((link_up(2.0, "a", "b"), link_down(1.0, "a", "b")))

    def test_constructor_rejects_non_events(self):
        with pytest.raises(ValueError, match="not a FaultEvent"):
            FaultSchedule(("not-an-event",))

    def test_constructor_rejects_negative_times(self):
        # FaultEvent itself rejects negative times, but events restored from
        # tampered pickles bypass __post_init__ -- the schedule re-checks.
        rogue = FaultEvent.__new__(FaultEvent)
        for field_name, value in (
            ("time", -1.0), ("kind", FaultKind.SWITCH_DOWN),
            ("target", ("s",)), ("severity", 1.0), ("cause", ""),
        ):
            object.__setattr__(rogue, field_name, value)
        with pytest.raises(ValueError, match="negative time"):
            FaultSchedule((rogue,))

    def test_ordered_keeps_same_time_batches_stable(self):
        down_a = link_down(1.0, "a", "b")
        down_c = link_down(1.0, "c", "d")
        schedule = FaultSchedule.ordered((switch_down(2.0, "s"), down_a, down_c))
        assert schedule.events[:2] == (down_a, down_c)

    def test_len_bool_and_empty(self):
        assert len(FaultSchedule()) == 0
        assert not FaultSchedule()
        assert len(FaultSchedule((switch_down(0.0, "s"),))) == 1

    def test_merged_combines_and_resorts(self):
        one = FaultSchedule((link_down(1.0, "a", "b"),))
        two = FaultSchedule((switch_down(0.5, "s"),))
        merged = one.merged(two)
        assert len(merged) == 2
        assert merged.events[0].kind is FaultKind.SWITCH_DOWN

    def test_counts_by_kind(self):
        schedule = FaultSchedule(
            (link_down(0.0, "a", "b"), link_up(1.0, "a", "b"), link_down(2.0, "c", "d"))
        )
        counts = schedule.counts()
        assert counts["link_down"] == 2
        assert counts["link_up"] == 1
        assert counts["switch_down"] == 0

    def test_schedule_pickles_unchanged(self):
        schedule = FaultSchedule(
            (link_degrade(0.1, "a", "b", 0.4), switch_down(0.2, "core0"))
        )
        assert pickle.loads(pickle.dumps(schedule)) == schedule


class TestRandomFaultSchedule:
    @pytest.fixture(scope="class")
    def topology(self):
        return FatTreeTopology(4)

    def test_zero_intensity_is_empty(self, topology):
        assert len(random_fault_schedule(topology, random.Random(1), 0.0)) == 0

    def test_intensity_outside_unit_interval_rejected(self, topology):
        with pytest.raises(ValueError):
            random_fault_schedule(topology, random.Random(1), -0.5)
        with pytest.raises(ValueError):
            # > 1 would let the link-down slice swallow the whole edge
            # sample and silently drop the degrade/loss events.
            random_fault_schedule(topology, random.Random(1), 1.5)

    def test_same_seed_same_schedule(self, topology):
        one = random_fault_schedule(topology, random.Random(7), 0.8)
        two = random_fault_schedule(topology, random.Random(7), 0.8)
        assert one == two

    def test_different_seeds_differ(self, topology):
        one = random_fault_schedule(topology, random.Random(7), 0.8)
        two = random_fault_schedule(topology, random.Random(8), 0.8)
        assert one != two

    def test_only_fabric_links_are_touched(self, topology):
        schedule = random_fault_schedule(topology, random.Random(3), 1.0)
        assert schedule
        for event in schedule:
            if event.kind in (FaultKind.SWITCH_DOWN, FaultKind.SWITCH_UP):
                assert topology.roles[event.target[0]] is NodeRole.CORE
            else:
                for name in event.target:
                    assert topology.roles[name] is not NodeRole.HOST

    def test_every_fault_is_transient(self, topology):
        """Each down/degrade/lossy event has a matching restore event."""
        schedule = random_fault_schedule(topology, random.Random(5), 1.0)
        counts = schedule.counts()
        assert counts["link_down"] == counts["link_up"] > 0
        assert counts["switch_down"] == counts["switch_up"]
        degrades = [e for e in schedule if e.kind is FaultKind.LINK_DEGRADE]
        assert sum(1 for e in degrades if e.severity < 1.0) == sum(
            1 for e in degrades if e.severity == 1.0
        )
        losses = [e for e in schedule if e.kind is FaultKind.LINK_LOSS]
        assert sum(1 for e in losses if e.severity > 0.0) == sum(
            1 for e in losses if e.severity == 0.0
        )

    def test_small_nonzero_intensity_injects_something(self, topology):
        assert len(random_fault_schedule(topology, random.Random(1), 0.01)) >= 2

    def test_events_fall_in_window(self, topology):
        schedule = random_fault_schedule(
            topology, random.Random(2), 1.0, start_time=5.0, duration=2.0
        )
        for event in schedule:
            assert 5.0 <= event.time <= 7.0

    def test_fabric_edges_excludes_hosts(self, topology):
        edges = fabric_edges(topology)
        assert edges == sorted(edges)
        for a, b in edges:
            assert topology.roles[a] is not NodeRole.HOST
            assert topology.roles[b] is not NodeRole.HOST
        # k=4 fat-tree: 16 agg-edge links + 16 agg-core links.
        assert len(edges) == 32
