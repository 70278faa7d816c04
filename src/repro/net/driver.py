"""The wire-side binding of the session driver, and the UDP config profile.

:func:`drive` is the net twin of
:meth:`repro.transport.polyraptor.PolyraptorAgent.drive`: it binds a
protocol core to a :class:`~repro.utils.clock.Clock` and a ``transmit``
callable (normally ``sock.sendto`` behind :func:`repro.net.wire.encode_frame`)
through the same :class:`~repro.protocol.driver.SessionDriver` the simulator
uses.  Real endpoints pass :class:`AsyncioClock`, the one adapter from an
asyncio event loop to that clock surface; deterministic replays pass a
:class:`~repro.sim.engine.Simulator`.  Because the decision logic lives
entirely in the core and the action application entirely in that one
driver, the conformance suite can replay a scripted trace through both
bindings on one clock and require identical outputs.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional, Union

from repro.core.config import PolyraptorConfig
from repro.protocol.actions import SendPacket
from repro.protocol.driver import SessionDriver
from repro.protocol.pacer import PacedPullQueue
from repro.protocol.receiver import ReceiverCore
from repro.protocol.sender import SenderCore
from repro.utils.clock import Clock

#: Nominal link rate assumed for pull pacing on a real path (loopback or a
#: modern NIC); one symbol packet every ~12 microseconds at the default MTU.
DEFAULT_WIRE_RATE_BPS = 1e9

#: Receiver-side stall timeout on a real path: long enough to sit above
#: loopback/LAN RTTs with scheduling jitter, short enough that a lost tail
#: symbol costs tens of milliseconds, not the sim's microsecond scales.
DEFAULT_WIRE_STALL_S = 0.05


class AsyncioClock:
    """The :class:`~repro.utils.clock.Clock` surface over an asyncio event loop.

    ``now`` is ``loop.time()`` and ``schedule`` is ``loop.call_later``, whose
    ``TimerHandle`` already has the ``cancel()`` the clock surface asks for.
    """

    __slots__ = ("_loop",)

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        # get_running_loop, not the deprecated get_event_loop: a clock
        # constructed outside a running loop is a bug, not a reason to spin
        # up an implicit one.
        self._loop = loop if loop is not None else asyncio.get_running_loop()

    @property
    def now(self) -> float:
        return self._loop.time()

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> asyncio.TimerHandle:
        return self._loop.call_later(delay, callback, *args)


def wire_config(**overrides: Any) -> PolyraptorConfig:
    """The :class:`PolyraptorConfig` profile for real UDP transport.

    Differences from the sim defaults, all forced by the nature of a real
    wire (pass ``overrides`` to tune further):

    * ``carry_payload=True`` -- packets carry real encoded bytes and the
      receiver actually decodes;
    * ``pull_on_gap=True`` -- a lost datagram vanishes silently (no trimmed
      header arrives to keep the pull clock running), so sequence gaps
      replace the lost pulls directly;
    * ``stall_timeout_s=0.05`` -- real clocks, not microsecond sim scales.
    """
    defaults: dict[str, Any] = dict(
        carry_payload=True,
        pull_on_gap=True,
        stall_timeout_s=DEFAULT_WIRE_STALL_S,
    )
    defaults.update(overrides)
    return PolyraptorConfig(**defaults)


def drive(
    core: Union[SenderCore, ReceiverCore],
    clock: Clock,
    transmit: Callable[[SendPacket], Any],
    on_complete: Optional[Callable[[float], None]] = None,
    max_rate_bps: float = DEFAULT_WIRE_RATE_BPS,
) -> SessionDriver:
    """Bind a protocol core to a clock and a datagram transport.

    A receiver gets the endpoint's pull pacer sized for ``max_rate_bps``:
    the same :class:`~repro.protocol.pacer.PacedPullQueue` code that paces
    the simulator's hosts, scheduled on ``clock``.  A sender never queues
    pulls and gets none.
    """
    pacer = None
    if isinstance(core, ReceiverCore):
        pacer = PacedPullQueue(core.config, max_rate_bps, clock.schedule, transmit)
    return SessionDriver(core, clock, transmit, pacer=pacer, on_complete=on_complete)
