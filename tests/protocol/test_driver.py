"""The one SessionDriver: dispatch-table coverage and close() through both bindings."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.agent import PolyraptorAgent
from repro.core.config import PolyraptorConfig
from repro.core.packets import SymbolPayload
from repro.net.driver import drive
from repro.protocol import actions
from repro.protocol import driver as driver_module
from repro.protocol.receiver import ReceiverCore
from repro.protocol.sender import SenderCore
from repro.sim.engine import Simulator
from tests.protocol.conformance import LINK_RATE_BPS, LOCAL_HOST_ID, StubHost

#: TFRC pacing on, so a started sender arms its paced timer as well as the
#: startup probe and close() has two live timers to disarm.
CONFIG = PolyraptorConfig(tfrc_pacing=True)
OBJECT_BYTES = CONFIG.symbol_size_bytes * 40


@pytest.fixture(params=["agent-binding", "net-binding"])
def clock(request):
    """``(bind, run_until, sent)`` for the sim binding and the net binding,
    each on its own Simulator."""
    sent = []
    sim = Simulator()
    if request.param == "agent-binding":
        bind = PolyraptorAgent(sim, StubHost(sim, sent), CONFIG).drive
    else:
        def bind(core):
            return drive(core, sim, sent.append, max_rate_bps=LINK_RATE_BPS)

    return bind, lambda until: sim.run(until=until), sent


def _receiver_core():
    return ReceiverCore(config=CONFIG, session_id=7, object_bytes=OBJECT_BYTES,
                        local_host=LOCAL_HOST_ID, expected_senders=[0])


def _sender_core():
    return SenderCore(config=CONFIG, session_id=7, object_bytes=OBJECT_BYTES,
                      receiver_host_ids=[2], local_host=LOCAL_HOST_ID,
                      link_rate_bps=LINK_RATE_BPS)


def _symbol(esi):
    return SymbolPayload(session_id=7, sender_host=0, block_number=0, esi=esi,
                         block_symbol_count=40, num_blocks=1,
                         object_bytes=OBJECT_BYTES, data=None, sequence=esi + 1)


def test_every_action_class_has_a_handler(clock):
    bind, _, _ = clock
    vocabulary = {
        obj for obj in vars(actions).values()
        if dataclasses.is_dataclass(obj) and obj.__module__ == actions.__name__
    }
    assert len(vocabulary) == 7  # the emitter base class is not an action
    assert set(bind(_receiver_core())._handlers) == vocabulary
    assert set(bind(_sender_core())._handlers) == vocabulary


def test_unregistered_action_raises_at_drain(clock):
    bind, _, _ = clock
    core = _sender_core()
    driver = bind(core)

    @dataclasses.dataclass(frozen=True)
    class Teleport:
        where: str

    core._emit(Teleport("elsewhere"))
    with pytest.raises(TypeError, match="unexpected protocol action: .*Teleport"):
        driver.start()



def test_driver_builds_one_timer_per_core_timer_name(clock):
    bind, _, _ = clock
    for core in (_receiver_core(), _sender_core()):
        driver = bind(core)
        assert set(driver.timers) == set(core.TIMERS)


def test_stall_timer_fires_on_the_clock(clock):
    bind, run_until, sent = clock
    driver = bind(_receiver_core())
    assert driver.timers["stall"].running  # armed at construction
    run_until(CONFIG.stall_timeout_s * 1.5)
    assert driver.core.stall_events == 1
    assert sent  # the stall re-issued a pull


def test_session_driver_takes_a_clock_and_builds_its_own_timers():
    parameters = list(inspect.signature(driver_module.SessionDriver).parameters)
    assert parameters == ["core", "clock", "send", "pacer", "on_complete"]

def test_close_retires_a_receiver(clock):
    bind, run_until, sent = clock
    driver = bind(_receiver_core())
    for esi in range(3):  # same instant: one pull leaves, two queue behind it
        driver.on_symbol(_symbol(esi))
    assert driver.timers["stall"].running
    assert driver.pacer.pending_for_session(7) == 2
    sent_before = len(sent)

    driver.close()

    assert not any(timer.running for timer in driver.timers.values())
    assert driver.pacer.pending_for_session(7) == 0
    run_until(1.0)  # well past the stall timeout and any pacing gap
    assert len(sent) == sent_before
    assert driver.core.stall_events == 0


def test_close_retires_a_sender(clock):
    bind, run_until, sent = clock
    driver = bind(_sender_core())
    driver.start()
    assert driver.timers["startup"].running and driver.timers["paced"].running
    sent_before = len(sent)

    driver.close()

    assert not any(timer.running for timer in driver.timers.values())
    run_until(1.0)
    assert len(sent) == sent_before
    assert driver.core.startup_retries == 0


def test_driver_module_is_clock_blind():
    """What keeps it one driver: it may not import either clock or transport."""
    with open(driver_module.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = {
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
    }
    banned = ("repro.sim", "repro.network", "repro.net", "repro.core.agent", "asyncio")
    assert not [name for name in imported if name.startswith(banned)]


def test_protocol_package_imports_first_in_a_fresh_interpreter():
    """repro.protocol and repro.core import each other; entering the cycle
    from the protocol side used to die on a half-initialised module."""
    src = Path(driver_module.__file__).parents[2]
    result = subprocess.run(
        [sys.executable, "-c", "import repro.protocol.driver"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
