"""The one session driver: binds a protocol core to a clock and a transport.

A core (:class:`~repro.protocol.sender.SenderCore` or
:class:`~repro.protocol.receiver.ReceiverCore`) decides; the driver applies.
Every input event is forwarded to the core stamped with ``clock.now``, then
the core's buffered actions are drained and applied **in emission order** --
that order is what keeps simulations event-for-event identical across
refactors (the golden fingerprints enforce it) and what lets one scripted
trace replay identically through both bindings (the conformance suite
enforces it).

The driver is clock-blind.  Its owner injects:

* ``clock`` -- a :class:`repro.utils.clock.Clock` (the
  :class:`~repro.sim.engine.Simulator`, or the asyncio adapter
  :class:`repro.net.driver.AsyncioClock`); the driver reads ``clock.now``
  and arms one :class:`repro.utils.clock.Timer` per name in
  ``core.TIMERS`` on it;
* ``send(SendPacket)`` -- put one packet on the transport (a sim ``Packet``
  through ``host.send``, or a wire frame through ``sock.sendto``);
* ``pacer`` -- the endpoint's shared
  :class:`~repro.protocol.pacer.PacedPullQueue`, needed by receivers only;
  it sends built pulls through the same ``send``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro.core.config import HEADER_BYTES
from repro.protocol.actions import (
    KIND_CONTROL,
    CancelPulls,
    EnqueuePull,
    SendPacket,
    SessionCompleted,
    SetTimer,
    StopTimer,
)
from repro.protocol.pacer import PacedPullQueue
from repro.utils.clock import Clock, Timer


class SessionDriver:
    """Drives one protocol core: events in, actions applied in order."""

    def __init__(
        self,
        core: Any,
        clock: Clock,
        send: Callable[[SendPacket], Any],
        pacer: Optional[PacedPullQueue] = None,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.core = core
        self.pacer = pacer
        self.timers = {
            name: Timer(clock, partial(self._on_timer, name)) for name in core.TIMERS
        }
        self._clock = clock
        self._on_complete = on_complete
        #: the single action-application site: one bound handler per action type
        self._handlers: dict[type, Callable[[Any], Any]] = {
            SendPacket: send,
            SetTimer: self._set_timer,
            StopTimer: self._stop_timer,
            EnqueuePull: self._enqueue_pull,
            CancelPulls: self._cancel_pulls,
            SessionCompleted: self._completed,
        }
        # A receiver core arms its stall timer at construction.
        self._drain()

    def close(self) -> None:
        """Disarm every timer, drop the session's queued pulls, release the driver.

        Called whenever an endpoint retires the session -- completed, reaped
        idle, a failed fetch, the end of a run: a still-armed timer would
        otherwise fire into a session the endpoint has already forgotten and
        keep re-arming itself forever.  The timers and the handler table
        hold bound methods of this driver; dropping them leaves the driver
        and its core free to go by reference counting.  ``core`` stays
        readable for end-of-session statistics.  Safe to call from inside
        an action handler: the drain in progress finishes on what it holds.
        """
        for timer in self.timers.values():
            timer.stop()
        if self.pacer is not None:
            self.pacer.cancel_session(self.core.session_id)
        self.timers = {}
        self._handlers = {}

    # Sender events ---------------------------------------------------------------

    def start(self) -> None:
        """Push the initial window of symbols."""
        self.core.start(self._clock.now)
        self._drain()

    def on_pull(self, pull: Any) -> None:
        """Handle a pull request from a receiver."""
        self.core.on_pull(pull, self._clock.now)
        self._drain()

    def on_done(self, done: Any) -> None:
        """Handle a receiver's DONE notification."""
        self.core.on_done(done, self._clock.now)
        self._drain()

    # Receiver events -------------------------------------------------------------

    def start_fetch(self) -> None:
        """Send the session's REQUEST(s); safe to call again as a retransmit."""
        self.core.start_fetch()
        self._drain()

    def on_symbol(
        self,
        payload: Any,
        trimmed: bool = False,
        multicast: bool = False,
    ) -> None:
        """Process one arriving symbol packet (full or trimmed)."""
        self.core.on_symbol(payload, trimmed, multicast=multicast, now=self._clock.now)
        self._drain()

    def on_done_ack(self, ack: Any) -> None:
        """A sender confirmed our DONE."""
        self.core.on_done_ack(ack)
        self._drain()

    # Action application ----------------------------------------------------------

    def _on_timer(self, name: str) -> None:
        self.core.on_timer(name, self._clock.now)
        self._drain()

    def _drain(self) -> None:
        """Apply every buffered core action, in order, until none remain."""
        handlers = self._handlers
        actions = self.core.poll_actions()
        while actions:
            for action in actions:
                try:
                    handler = handlers[type(action)]
                except KeyError:
                    raise TypeError(f"unexpected protocol action: {action!r}") from None
                handler(action)
            actions = self.core.poll_actions()

    def _set_timer(self, action: SetTimer) -> None:
        self.timers[action.name].start(action.delay_s)

    def _stop_timer(self, action: StopTimer) -> None:
        self.timers[action.name].stop()

    def _enqueue_pull(self, action: EnqueuePull) -> None:
        self.pacer.enqueue(
            action.session_id, partial(self._build_pull, action.target_sender)
        )

    def _build_pull(self, target_sender: int) -> Optional[SendPacket]:
        # Built at send time, so the block hint reflects the receiver's
        # latest state; None once the session has completed.
        pull = self.core.build_pull(target_sender)
        if pull is None:
            return None
        return SendPacket(
            payload=pull,
            kind=KIND_CONTROL,
            size_bytes=HEADER_BYTES,
            dest=target_sender,
        )

    def _cancel_pulls(self, action: CancelPulls) -> None:
        self.pacer.cancel_session(action.session_id)

    def _completed(self, action: SessionCompleted) -> None:
        if self._on_complete is not None:
            self._on_complete(action.time_s)
