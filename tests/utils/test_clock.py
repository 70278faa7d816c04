"""The one restartable timer, on the deterministic clock (the Simulator)."""

import ast
import importlib

import pytest

from repro.sim.engine import Event, Simulator
from repro.utils import clock as clock_module
from repro.utils.clock import Timer


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]

    def test_stop_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        timer.stop()
        sim.run()
        assert fired == []
        timer.stop()  # stopping an unarmed timer is a no-op

    def test_start_again_pushes_expiry_back(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.schedule(1.0, lambda: timer.start(2.0))
        sim.run()
        assert fired == [3.0]

    def test_running_tracks_arm_stop_and_fire(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.running
        timer.start(5.0)
        assert timer.running
        timer.stop()
        assert not timer.running
        timer.start(1.0)
        sim.run()
        assert not timer.running

    def test_callback_may_rearm_itself(self):
        sim = Simulator()
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer = Timer(sim, on_fire)
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]
        assert not timer.running

    def test_a_restart_costs_one_heap_entry_and_one_event(self):
        """The superseded arming is cancelled in place, never fired."""
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        timer.start(2.0)
        assert sim.pending_events == 2
        assert sim.run() == 1

    def test_stop_inside_its_own_callback_is_a_no_op(self):
        sim = Simulator()
        fired = []

        def on_fire():
            fired.append(sim.now)
            timer.stop()  # already disarmed before the callback runs

        timer = Timer(sim, on_fire)
        timer.start(1.0)
        sim.run()
        assert fired == [1.0]
        assert not timer.running

    def test_stays_armed_across_a_run_that_ends_before_its_expiry(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run(until=1.0)
        assert fired == [] and timer.running
        sim.run(until=3.0)
        assert fired == [2.0] and not timer.running

    def test_zero_delay_fires_after_work_already_due_now(self):
        """A zero-delay arming takes its place behind same-instant events."""
        sim = Simulator()
        order = []
        timer = Timer(sim, lambda: order.append("timer"))
        sim.schedule(1.0, lambda: timer.start(0.0))
        sim.schedule(1.0, lambda: order.append("same instant"))
        sim.run()
        assert order == ["same instant", "timer"]
        assert sim.now == 1.0

    def test_a_restart_at_the_expiry_instant_wins_if_scheduled_first(self):
        """An event due at the same instant as the expiry, but queued ahead of
        it, re-arms the timer: the superseded arming must not fire."""
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        sim.schedule(2.0, lambda: timer.start(1.0))
        timer.start(2.0)
        sim.run()
        assert fired == [3.0]

    def test_timers_on_one_clock_are_independent(self):
        sim = Simulator()
        fired = []
        first = Timer(sim, lambda: fired.append(("first", sim.now)))
        second = Timer(sim, lambda: fired.append(("second", sim.now)))
        first.start(1.0)
        second.start(1.0)
        first.stop()
        sim.run()
        assert fired == [("second", 1.0)]
        assert not first.running and not second.running


def test_clock_module_imports_neither_clock():
    """Protocol and transport code arm timers without knowing the clock."""
    with open(clock_module.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = {
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
    }
    assert not [name for name in imported if name.startswith(("repro.sim", "asyncio"))]


@pytest.mark.parametrize("module", ["repro.net.scheduler", "repro.sim.process"])
def test_no_second_clock_or_timer_module(module):
    """One deterministic heap and one timer: the old pair stay gone."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_simulator_cancels_only_through_the_event_handle():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "cancelled")
    assert isinstance(event, Event)
    assert not hasattr(sim, "cancel")
    event.cancel()
    assert sim.run() == 0
    assert fired == []
