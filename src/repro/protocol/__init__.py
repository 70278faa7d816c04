"""Transport-agnostic Polyraptor protocol core.

The session state machines in this package are *pure*: events go in
(symbols, pulls, DONEs, timer expiries -- each stamped with the caller's
clock), and typed :mod:`~repro.protocol.actions` come out (packets to send,
timers to arm, pulls to enqueue).  Nothing in here imports the simulator or
any real transport, which is what lets the exact same decision logic run

* inside the discrete-event simulator
  (:meth:`repro.transport.polyraptor.PolyraptorAgent.drive`), and
* on a real wire (:func:`repro.net.driver.drive`, from asyncio UDP
  endpoints).

Both bind a core through the same
:class:`~repro.protocol.driver.SessionDriver`, the only code that applies a
core's actions; it is clock-blind because the owner injects the clock (the
simulator, or the asyncio adapter -- both offer ``now`` and ``schedule``),
``send`` and the pull pacer.  The conformance suite under ``tests/protocol/``
replays identical scripted event traces through both bindings on one
simulator clock and asserts the cores emitted identical decision
sequences.

Besides the cores, the driver and the pull pacer, the package holds the
decision aid the cores consult: straggler and path-loss detection
(:mod:`~repro.protocol.straggler`).  The pull pacer is the protocol's only
rate control.  The package imports only :mod:`repro.core` (config and
payload types), :mod:`repro.rq` and :mod:`repro.utils`;
``tests/test_layering.py`` keeps it that way.
"""

from repro.protocol.actions import (
    CancelPulls,
    EnqueuePull,
    SendPacket,
    SessionCompleted,
    SetTimer,
    StopTimer,
)
from repro.protocol.driver import SessionDriver
from repro.protocol.pacer import PacedPullQueue
from repro.protocol.receiver import ReceiverCore
from repro.protocol.sender import SenderCore

__all__ = [
    "CancelPulls",
    "EnqueuePull",
    "PacedPullQueue",
    "ReceiverCore",
    "SendPacket",
    "SenderCore",
    "SessionCompleted",
    "SessionDriver",
    "SetTimer",
    "StopTimer",
]
