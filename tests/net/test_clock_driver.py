"""The asyncio clock adapter under the one Timer, and the net binding of the
session driver (on the deterministic clock, the Simulator)."""

import asyncio
import time

import pytest

from repro.net.driver import AsyncioClock, drive, wire_config
from repro.protocol.actions import KIND_CONTROL
from repro.protocol.receiver import ReceiverCore
from repro.protocol.sender import SenderCore
from repro.sim.engine import Simulator
from repro.utils.clock import Timer

#: asyncio fires a timer once ``loop.time()`` is within one tick of its due
#: time, so a callback may observe a clock that far short of it.
_RESOLUTION = time.get_clock_info("monotonic").resolution


class TestAsyncioClock:
    """The one Timer on a real event loop, through the asyncio adapter."""

    def test_a_second_start_supersedes_the_first(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            clock = AsyncioClock(loop)
            fired = []
            done = loop.create_future()

            def on_fire():
                fired.append(clock.now)
                done.set_result(None)

            timer = Timer(clock, on_fire)
            armed_at = clock.now
            timer.start(0.01)
            timer.start(0.05)  # the 10 ms arming must never fire
            await asyncio.wait_for(done, 5.0)
            await asyncio.sleep(0.02)
            assert len(fired) == 1
            assert fired[0] - armed_at >= 0.04
            assert not timer.running

        asyncio.run(scenario())

    def test_stop_on_an_unarmed_timer_is_a_no_op(self):
        async def scenario():
            clock = AsyncioClock()
            fired = []
            timer = Timer(clock, lambda: fired.append(clock.now))
            timer.stop()
            assert not timer.running
            timer.start(0.005)
            timer.stop()
            timer.stop()
            await asyncio.sleep(0.03)
            assert fired == []
            assert not timer.running

        asyncio.run(scenario())

    def test_a_callback_may_rearm_its_own_timer(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            clock = AsyncioClock(loop)
            fired = []
            done = loop.create_future()

            def on_fire():
                fired.append(clock.now)
                if len(fired) < 3:
                    timer.start(0.005)
                else:
                    done.set_result(None)

            timer = Timer(clock, on_fire)
            timer.start(0.005)
            await asyncio.wait_for(done, 5.0)
            assert len(fired) == 3
            assert fired == sorted(fired)
            assert not timer.running

        asyncio.run(scenario())

    def test_now_tracks_the_loop_time(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            clock = AsyncioClock(loop)
            before = loop.time()
            now = clock.now
            assert before <= now <= loop.time()
            await asyncio.sleep(0.01)
            assert clock.now - now >= 0.005
            seen = loop.create_future()
            handle = clock.schedule(0.0, seen.set_result, "with args")
            assert isinstance(handle, asyncio.TimerHandle)
            assert await asyncio.wait_for(seen, 5.0) == "with args"

        asyncio.run(scenario())

    def test_cancelled_handles_never_fire(self):
        async def scenario():
            clock = AsyncioClock()
            fired = []
            handle = clock.schedule(0.005, fired.append, "cancelled")
            handle.cancel()
            await asyncio.sleep(0.03)
            assert fired == []

        asyncio.run(scenario())

    def test_callbacks_can_schedule_more_work(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            clock = AsyncioClock(loop)
            times = []
            done = loop.create_future()

            def tick():
                times.append(clock.now)
                if len(times) < 3:
                    clock.schedule(0.005, tick)
                else:
                    done.set_result(None)

            start = clock.now
            clock.schedule(0.005, tick)
            await asyncio.wait_for(done, 5.0)
            assert times == sorted(times)
            assert times[-1] - start >= 0.015 - 3 * _RESOLUTION

        asyncio.run(scenario())

    def test_callbacks_run_no_earlier_than_their_due_time(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            clock = AsyncioClock(loop)
            seen = loop.create_future()
            due = clock.now + 0.01
            clock.schedule(0.01, lambda: seen.set_result(clock.now))
            assert await asyncio.wait_for(seen, 5.0) >= due - _RESOLUTION

        asyncio.run(scenario())

    def test_needs_a_running_loop(self):
        with pytest.raises(RuntimeError):
            AsyncioClock()


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
        core = ReceiverCore(config=config, session_id=1, object_bytes=1408,
                            local_host=1, expected_senders=[0])
        driver = drive(core, Simulator(), transmit=lambda a: None)
        core._emit(object())  # not in the action vocabulary
        with pytest.raises(TypeError, match="unexpected protocol action"):
            driver.start_fetch()

    def test_stall_timer_runs_on_the_clock(self):
        """The core's construction-time stall arming must land on the clock's
        heap and re-issue pulls through the pacer when it fires."""
        config = wire_config(carry_payload=False, tfrc_pacing=False)
        sim = Simulator()
        sent = []
        core = ReceiverCore(config=config, session_id=1, object_bytes=1408,
                            local_host=1, expected_senders=[0])
        drive(core, sim, transmit=sent.append)
        assert sim.peek_next_time() == pytest.approx(config.stall_timeout_s)
        sim.run(until=config.stall_timeout_s * 1.5)
        assert core.stall_events == 1
        assert [a.kind for a in sent] == [KIND_CONTROL]  # one stall pull out

    def test_stall_timer_runs_on_the_asyncio_clock(self):
        """The same stall arming, on a real event loop through the adapter."""
        config = wire_config(carry_payload=False, tfrc_pacing=False,
                             stall_timeout_s=0.01)

        async def scenario():
            sent = []
            core = ReceiverCore(config=config, session_id=1, object_bytes=1408,
                                local_host=1, expected_senders=[0])
            driver = drive(core, AsyncioClock(), transmit=sent.append)
            assert driver.timers["stall"].running
            await asyncio.sleep(0.015)
            for _ in range(200):  # a loaded host may run the loop late
                if core.stall_events:
                    break
                await asyncio.sleep(0.005)
            driver.close()
            assert core.stall_events >= 1
            assert sent and {a.kind for a in sent} == {KIND_CONTROL}

        asyncio.run(scenario())

    def test_close_disarms_the_timers_on_the_asyncio_clock(self):
        config = wire_config(carry_payload=False, tfrc_pacing=False,
                             stall_timeout_s=0.005)

        async def scenario():
            sent = []
            core = ReceiverCore(config=config, session_id=1, object_bytes=1408,
                                local_host=1, expected_senders=[0])
            driver = drive(core, AsyncioClock(), transmit=sent.append)
            driver.close()
            await asyncio.sleep(0.03)
            assert core.stall_events == 0
            assert sent == []

        asyncio.run(scenario())

    def test_only_receivers_get_a_pacer_sized_for_the_wire_rate(self):
        config = wire_config(carry_payload=False)
        sim = Simulator()
        receiver = drive(
            ReceiverCore(config=config, session_id=1, object_bytes=1408,
                         local_host=1, expected_senders=[0]),
            sim, transmit=lambda a: None, max_rate_bps=1e8,
        )
        sender = drive(
            SenderCore(config=config, session_id=1, object_bytes=1408,
                       receiver_host_ids=[1], local_host=0, link_rate_bps=1e8),
            sim, transmit=lambda a: None,
        )
        assert sender.pacer is None
        assert receiver.pacer.pull_interval_s == pytest.approx(
            config.symbol_packet_bytes * 8 / 1e8
        )
        assert receiver.pacer.tfrc is not None  # wire_config paces with TFRC
