"""ManualScheduler/NetTimer semantics and the net binding of the session driver."""

import random

import pytest

from repro.net.driver import drive, wire_config
from repro.net.scheduler import ManualScheduler, NetTimer
from repro.protocol.actions import KIND_CONTROL
from repro.protocol.receiver import ReceiverCore
from repro.protocol.sender import SenderCore
from repro.sim.engine import Simulator


class TestManualScheduler:
    def test_same_instant_callbacks_run_in_scheduling_order(self):
        scheduler = ManualScheduler()
        order = []
        scheduler.call_later(1.0, lambda: order.append("first"))
        scheduler.call_later(1.0, lambda: order.append("second"))
        scheduler.call_later(0.5, lambda: order.append("earlier"))
        scheduler.run_until(2.0)
        assert order == ["earlier", "first", "second"]

    def test_clock_lands_exactly_on_the_target(self):
        scheduler = ManualScheduler()
        scheduler.call_later(0.3, lambda: None)
        scheduler.run_until(1.0)
        assert scheduler.time() == 1.0
        scheduler.run_until(1.0)  # idempotent
        assert scheduler.time() == 1.0

    def test_callbacks_see_their_due_time(self):
        scheduler = ManualScheduler()
        seen = []
        scheduler.call_later(0.25, lambda: seen.append(scheduler.time()))
        scheduler.run_until(5.0)
        assert seen == [0.25]

    def test_cancelled_handles_never_fire(self):
        scheduler = ManualScheduler()
        fired = []
        handle = scheduler.call_later(0.1, lambda: fired.append(1))
        handle.cancel()
        scheduler.run_until(1.0)
        assert fired == []
        assert scheduler.next_time() is None

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            ManualScheduler().call_later(-0.1, lambda: None)

    def test_run_until_a_past_target_never_rewinds_the_clock(self):
        """The deterministic clock is monotonic: a target before now clamps
        to now (firing nothing) instead of moving time backwards."""
        scheduler = ManualScheduler()
        scheduler.run_until(5.0)
        fired = []
        scheduler.call_later(1.0, lambda: fired.append(scheduler.time()))
        assert scheduler.run_until(3.0) == 0
        assert scheduler.time() == 5.0
        assert fired == []
        scheduler.run_until(6.5)  # pending work is intact and still due at 6.0
        assert fired == [6.0]

    def test_callbacks_can_schedule_more_work(self):
        scheduler = ManualScheduler()
        times = []

        def tick():
            times.append(scheduler.time())
            if len(times) < 3:
                scheduler.call_later(0.1, tick)

        scheduler.call_later(0.1, tick)
        scheduler.run_until(1.0)
        assert times == pytest.approx([0.1, 0.2, 0.3])


def _replay_script(schedule, cancel, run_until, now, seed=20180821, steps=400):
    """One seeded schedule/cancel/advance script against either clock.

    Callbacks schedule children, cancel handles and tie on time constantly
    (delays come from a five-value menu), so the firing order leans on the
    ``(when, seq)`` tie-break everywhere.  Returns ``[(time, label), ...]``.
    """
    rng = random.Random(seed)
    fired, handles = [], []

    def spawn(label):
        def callback():
            fired.append((now(), label))
            roll = rng.random()
            if roll < 0.4:
                spawn(f"{label}.{len(handles)}")
            elif roll < 0.6 and handles:
                cancel(handles[rng.randrange(len(handles))])
        handles.append(schedule(rng.choice((0.0, 0.001, 0.001, 0.002, 0.005)), callback))

    for step in range(steps):
        roll = rng.random()
        if roll < 0.6:
            spawn(str(step))
        elif roll < 0.8 and handles:
            cancel(handles[rng.randrange(len(handles))])
        else:
            run_until(now() + rng.choice((0.0, 0.001, 0.003)))
    run_until(now() + 1.0)
    return fired


class TestSameOrderAsTheSimulator:
    def test_one_seeded_script_fires_identically_on_both_clocks(self):
        sim = Simulator()
        on_sim = _replay_script(
            schedule=sim.schedule, cancel=sim.cancel,
            run_until=lambda until: sim.run(until=until), now=lambda: sim.now,
        )
        manual = ManualScheduler()
        on_manual = _replay_script(
            schedule=manual.call_later, cancel=lambda handle: handle.cancel(),
            run_until=manual.run_until, now=manual.time,
        )
        assert len(on_sim) > 200
        assert len({time for time, _ in on_sim}) < len(on_sim) / 2  # ties are the norm
        assert on_manual == on_sim
        assert sim.pending_events == 0 and manual.next_time() is None


class TestNetTimer:
    def test_start_rearms_and_stop_disarms(self):
        scheduler = ManualScheduler()
        fired = []
        timer = NetTimer(scheduler, lambda: fired.append(scheduler.time()))
        timer.start(1.0)
        timer.start(2.0)  # restart supersedes the first arming
        assert timer.running
        scheduler.run_until(3.0)
        assert fired == [2.0]
        assert not timer.running
        timer.stop()  # stopping an unarmed timer is a no-op
        timer.start(1.0)
        timer.stop()
        scheduler.run_until(10.0)
        assert fired == [2.0]

    def test_callback_may_rearm_itself(self):
        scheduler = ManualScheduler()
        fired = []

        def on_fire():
            fired.append(scheduler.time())
            if len(fired) < 2:
                timer.start(1.0)

        timer = NetTimer(scheduler, on_fire)
        timer.start(1.0)
        scheduler.run_until(5.0)
        assert fired == [1.0, 2.0]


class TestWireConfig:
    def test_profile_enables_the_wire_essentials(self):
        config = wire_config()
        assert config.carry_payload
        assert config.pull_on_gap
        assert config.tfrc_pacing
        assert config.stall_timeout_s == pytest.approx(0.05)

    def test_overrides_win(self):
        config = wire_config(stall_timeout_s=0.2, tfrc_pacing=False)
        assert config.stall_timeout_s == 0.2
        assert not config.tfrc_pacing
        assert config.pull_on_gap  # untouched defaults remain


class TestNetReceiverDriver:
    def test_unexpected_action_is_rejected(self):
        config = wire_config(carry_payload=False)
        scheduler = ManualScheduler()
        core = ReceiverCore(config=config, session_id=1, object_bytes=1408,
                            local_host=1, expected_senders=[0])
        driver = drive(core, scheduler, transmit=lambda a: None)
        core._emit(object())  # not in the action vocabulary
        with pytest.raises(TypeError, match="unexpected protocol action"):
            driver.start_fetch()

    def test_stall_timer_runs_on_the_scheduler(self):
        """The core's construction-time stall arming must land on the manual
        heap and re-issue pulls through the pacer when it fires."""
        config = wire_config(carry_payload=False, tfrc_pacing=False)
        scheduler = ManualScheduler()
        sent = []
        core = ReceiverCore(config=config, session_id=1, object_bytes=1408,
                            local_host=1, expected_senders=[0])
        drive(core, scheduler, transmit=sent.append)
        assert scheduler.next_time() == pytest.approx(config.stall_timeout_s)
        scheduler.run_until(config.stall_timeout_s * 1.5)
        assert core.stall_events == 1
        assert [a.kind for a in sent] == [KIND_CONTROL]  # one stall pull out

    def test_only_receivers_get_a_pacer_sized_for_the_wire_rate(self):
        config = wire_config(carry_payload=False)
        scheduler = ManualScheduler()
        receiver = drive(
            ReceiverCore(config=config, session_id=1, object_bytes=1408,
                         local_host=1, expected_senders=[0]),
            scheduler, transmit=lambda a: None, max_rate_bps=1e8,
        )
        sender = drive(
            SenderCore(config=config, session_id=1, object_bytes=1408,
                       receiver_host_ids=[1], local_host=0, link_rate_bps=1e8),
            scheduler, transmit=lambda a: None,
        )
        assert sender.pacer is None
        assert receiver.pacer.pull_interval_s == pytest.approx(
            config.symbol_packet_bytes * 8 / 1e8
        )
        assert receiver.pacer.tfrc is not None  # wire_config paces with TFRC
