"""Tests for the discrete-event engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.5]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            seen.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 2.0)]

    def test_kwargs_passed_to_callback(self):
        sim = Simulator()
        seen = {}
        sim.schedule(0.1, seen.update, value=42)
        sim.run()
        assert seen == {"value": 42}

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancelled_events_not_counted_as_processed(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.run() == 1


class TestRunControl:
    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_with_no_events_advances_clock(self):
        sim = Simulator()
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_run_until_a_past_target_never_rewinds_the_clock(self):
        """The clock is monotonic: a target before now clamps to now (firing
        nothing) instead of moving time backwards."""
        sim = Simulator()
        sim.run(until=5.0)
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        assert sim.run(until=3.0) == 0
        assert sim.now == 5.0
        assert fired == []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.run(until=6.5)  # pending work is intact and still due at 6.0
        assert fired == [5.5, 6.0]

    def test_repeating_a_target_fires_only_work_due_exactly_then(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.3, fired.append, "earlier")
        sim.run(until=1.0)
        assert sim.now == 1.0
        assert sim.run(until=1.0) == 0  # idempotent: nothing is due
        sim.schedule(0.0, fired.append, "now")
        assert sim.run(until=1.0) == 1
        assert fired == ["earlier", "now"]
        assert sim.now == 1.0

    def test_stop_from_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]

    def test_max_events(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        assert sim.run(max_events=4) == 4

    def test_run_returns_number_processed(self):
        sim = Simulator()
        for index in range(5):
            sim.schedule(index, lambda: None)
        assert sim.run() == 5
        assert sim.events_processed == 5

    def test_run_not_reentrant(self):
        sim = Simulator()
        errors = []

        def try_reenter():
            try:
                sim.run()
            except SimulationError as error:
                errors.append(error)

        sim.schedule(1.0, try_reenter)
        sim.run()
        assert len(errors) == 1

    def test_peek_next_time(self):
        sim = Simulator()
        assert sim.peek_next_time() is None
        sim.schedule(2.5, lambda: None)
        assert sim.peek_next_time() == 2.5


class TestOrderingAndCancellation:
    def test_same_time_events_fire_fifo_even_when_scheduled_from_callbacks(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, order.append, "child-of-first")

        sim.schedule(1.0, first)
        sim.schedule(1.0, order.append, "second")
        sim.schedule_at(1.0, order.append, "third")
        sim.run()
        assert order == ["first", "second", "third", "child-of-first"]

    def test_callbacks_that_cannot_be_compared_never_are(self):
        # Entries tie on time constantly; the unique seq must settle every
        # comparison before it could reach the (unorderable) event.
        sim = Simulator()
        fired = []
        for index in range(50):
            sim.schedule(1.0, lambda index=index: fired.append(index))
        sim.run()
        assert fired == list(range(50))

    def test_cancel_at_head_and_in_the_middle(self):
        sim = Simulator()
        order = []
        events = [sim.schedule(float(t), order.append, t) for t in range(1, 6)]
        events[0].cancel()  # head of the heap
        events[2].cancel()  # buried in the middle
        assert sim.run() == 3
        assert order == [2, 4, 5]

    def test_cancel_is_lazy_and_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled
        assert sim.pending_events == 1  # still in the heap until it surfaces
        assert sim.run() == 0
        assert sim.pending_events == 0

    def test_cancel_then_reschedule_fires_once_at_the_new_time(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append(sim.now))
        event.cancel()
        replacement = sim.schedule(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0]
        assert event.time == 1.0 and replacement.time == 2.0

    def test_cancel_from_a_callback_at_the_same_instant(self):
        sim = Simulator()
        fired = []
        victim = sim.schedule_at(1.0, fired.append, "victim")
        sim.schedule_at(0.5, victim.cancel)
        sim.run()
        assert fired == []

    def test_event_time_is_the_absolute_firing_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.schedule(0.25, lambda: None).time == 1.25
        assert sim.schedule_at(7.0, lambda: None).time == 7.0

    def test_kwargs_and_args_together(self):
        sim = Simulator()
        seen = []

        def callback(a, b, *, c, d=4):
            seen.append((a, b, c, d))

        sim.schedule(0.1, callback, 1, 2, c=3)
        sim.schedule_at(0.2, callback, 5, b=6, c=7, d=8)
        sim.run()
        assert seen == [(1, 2, 3, 4), (5, 6, 7, 8)]


class TestCallbackDrivenScript:
    def test_seeded_script_keeps_time_order_fifo_ties_and_cancellation(self):
        """Callbacks schedule children, cancel handles and tie on time
        constantly (delays come from a five-value menu), so the firing order
        leans on the ``(time, seq)`` tie-break everywhere."""
        rng = random.Random(20180821)
        sim = Simulator()
        events, fired, cancelled = [], [], set()

        def cancel_one():
            index = rng.randrange(len(events))
            events[index].cancel()
            if index not in {seq for _, seq in fired}:
                cancelled.add(index)

        def spawn():
            seq = len(events)

            def callback():
                fired.append((sim.now, seq))
                roll = rng.random()
                if roll < 0.4:
                    spawn()
                elif roll < 0.6:
                    cancel_one()

            events.append(sim.schedule(
                rng.choice((0.0, 0.001, 0.001, 0.002, 0.005)), callback))

        for _ in range(400):
            roll = rng.random()
            if roll < 0.6:
                spawn()
            elif roll < 0.8 and events:
                cancel_one()
            else:
                sim.run(until=sim.now + rng.choice((0.0, 0.001, 0.003)))
        sim.run(until=sim.now + 1.0)

        assert len(fired) > 200
        assert len({time for time, _ in fired}) < len(fired) / 2  # ties are the norm
        # time order, and same-instant events in scheduling order
        assert fired == sorted(fired)
        # every event fires exactly once unless it was cancelled first
        assert sorted(seq for _, seq in fired) == [
            seq for seq in range(len(events)) if seq not in cancelled]
        assert all(event.time == time for time, seq in fired
                   for event in [events[seq]])
        assert sim.pending_events == 0


class TestRunControlEdges:
    def test_until_advances_clock_past_the_last_event(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=4.0) == 1
        assert sim.now == 4.0

    def test_until_includes_events_exactly_at_the_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "at")
        sim.schedule(2.0000001, fired.append, "after")
        sim.run(until=2.0)
        assert fired == ["at"]
        assert sim.now == 2.0
        assert sim.pending_events == 1

    def test_until_does_not_advance_the_clock_after_stop(self):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.run(until=9.0)
        assert sim.now == 1.0

    def test_stop_is_cleared_by_the_next_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, fired.append, "later")
        sim.run()
        assert fired == []
        sim.run()
        assert fired == ["later"]

    def test_max_events_counts_this_call_only_and_skips_cancelled(self):
        sim = Simulator()
        events = [sim.schedule(float(t), lambda: None) for t in range(1, 9)]
        assert sim.run(max_events=2) == 2
        events[2].cancel()
        assert sim.run(max_events=3) == 3  # t=4, 5, 6: the cancelled t=3 is free
        assert sim.now == 6.0
        assert sim.events_processed == 5

    def test_failed_reentry_leaves_the_outer_run_intact(self):
        sim = Simulator()
        fired = []

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()
            fired.append("reenter")

        sim.schedule(1.0, reenter)
        sim.schedule(2.0, fired.append, "after")
        assert sim.run() == 2
        assert fired == ["reenter", "after"]

    def test_exception_in_callback_leaves_the_simulator_runnable(self):
        sim = Simulator()
        fired = []

        def boom():
            raise ValueError("boom")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, fired.append, "after")
        with pytest.raises(ValueError):
            sim.run()
        assert sim.run() == 1
        assert fired == ["after"]

    def test_peek_next_time_skips_and_discards_cancelled_heads(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        second = sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        first.cancel()
        second.cancel()
        assert sim.pending_events == 3
        assert sim.peek_next_time() == 3.0
        assert sim.pending_events == 1
        sim.run()
        assert sim.peek_next_time() is None

    def test_events_processed_is_live_inside_callbacks(self):
        sim = Simulator()
        seen = []
        for _ in range(3):
            sim.schedule(1.0, lambda: seen.append(sim.events_processed))
        sim.run()
        assert seen == [1, 2, 3]


class _ReferenceScheduler:
    """The specification: a list re-sorted by ``(time, seq)`` on every step."""

    def __init__(self) -> None:
        self.now = 0.0
        self.pending: list[list] = []  # [time, seq, label, cancelled]
        self.seq = 0

    def schedule(self, delay: float, label) -> list:
        entry = [self.now + delay, self.seq, label, False]
        self.seq += 1
        self.pending.append(entry)
        return entry

    def run(self, until=None, max_events=None) -> list:
        fired = []
        while True:
            self.pending.sort(key=lambda entry: (entry[0], entry[1]))
            while self.pending and self.pending[0][3]:
                self.pending.pop(0)
            if not self.pending:
                if until is not None and self.now < until:
                    self.now = until
                break
            if until is not None and self.pending[0][0] > until:
                self.now = until
                break
            entry = self.pending.pop(0)
            self.now = entry[0]
            fired.append((entry[0], entry[2]))
            if max_events is not None and len(fired) >= max_events:
                break
        return fired


#: a handful of distinct delays so ties are the common case, not the rare one
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("run_until"), _DELAYS),
        st.tuples(st.just("run_max"), st.integers(min_value=1, max_value=5)),
    ),
    max_size=60,
)


class TestAgainstSortedListReference:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_same_firing_sequence_clock_and_backlog(self, ops):
        sim, reference = Simulator(), _ReferenceScheduler()
        fired: list[tuple[float, int]] = []
        events, entries = [], []
        for kind, value in ops:
            if kind == "schedule":
                label = len(events)
                events.append(sim.schedule(
                    value, lambda label=label: fired.append((sim.now, label))))
                entries.append(reference.schedule(value, label))
            elif kind == "cancel" and events:
                index = value % len(events)
                events[index].cancel()
                entries[index][3] = True
            elif kind == "run_until":
                expected = reference.run(until=reference.now + value)
                start = len(fired)
                assert sim.run(until=sim.now + value) == len(expected)
                assert fired[start:] == expected
            elif kind == "run_max":
                expected = reference.run(max_events=value)
                start = len(fired)
                assert sim.run(max_events=value) == len(expected)
                assert fired[start:] == expected
            assert sim.now == reference.now
            assert sim.peek_next_time() == min(
                (entry[0] for entry in reference.pending if not entry[3]), default=None)
        expected = reference.run()
        start = len(fired)
        sim.run()
        assert fired[start:] == expected
        assert sim.pending_events == 0
