"""Typed actions emitted by the protocol cores.

A core never touches a clock, a socket or an event heap.  Instead every
input event appends zero or more of these action records to an internal
buffer; the driver drains the buffer with
:meth:`~repro.protocol.actions.ActionEmitter.poll_actions` and applies each
action to its transport **in emission order**.  Order is part of the
contract: the sim driver reproduces the pre-refactor simulator schedules
byte-identically only because schedule/cancel/send side effects happen in
exactly the sequence the old monolithic sessions performed them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

#: ``SendPacket.kind`` values -- plain strings so the protocol package does
#: not depend on the simulator's packet model.
KIND_DATA = "data"
KIND_CONTROL = "control"


@dataclass(frozen=True)
class SendPacket:
    """Transmit one protocol packet.

    ``payload`` is one of the :mod:`repro.core.packets` dataclasses; the
    driver wraps it in its own framing (a sim ``Packet`` or a wire frame).
    Exactly one of ``dest`` / ``multicast_group`` is set.
    """

    payload: Any
    kind: str
    size_bytes: int
    dest: Optional[int] = None
    multicast_group: Optional[int] = None


@dataclass(frozen=True)
class SetTimer:
    """(Re)arm the named one-shot session timer ``delay_s`` from now."""

    name: str
    delay_s: float


@dataclass(frozen=True)
class StopTimer:
    """Disarm the named session timer (a no-op if it is not armed)."""

    name: str


@dataclass(frozen=True)
class EnqueuePull:
    """Add one pull toward ``target_sender`` to the host's shared pull pacer.

    The pull packet itself is built at *send* time via
    :meth:`~repro.protocol.receiver.ReceiverCore.build_pull`, so the block
    hint and loss estimate reflect the receiver's latest state.
    """

    session_id: int
    target_sender: int


@dataclass(frozen=True)
class CancelPulls:
    """Discard every pending pull of the session (used on completion)."""

    session_id: int


@dataclass(frozen=True)
class SessionCompleted:
    """The session reached its terminal state at ``time_s``.

    Emitted last: every packet/timer action of the completing transition
    precedes it, so a driver's completion callback observes fully applied
    state.
    """

    session_id: int
    time_s: float


Action = Any


class ActionEmitter:
    """Base class: an append-only action buffer drained by the driver."""

    def __init__(self) -> None:
        self._actions: List[Action] = []

    def _emit(self, action: Action) -> None:
        self._actions.append(action)

    def poll_actions(self) -> List[Action]:
        """Return and clear the buffered actions (oldest first)."""
        drained = self._actions
        self._actions = []
        return drained
