"""The paced, session-fair pull queue (transport-agnostic half).

The paper, section 2: *"The data transport layer at each receiver has only
one pull queue shared by all sessions.  A pull request is added to this queue
upon receiving a full or trimmed symbol.  The receiver then paces pull
packets across all sessions, so that the aggregate data rate matches the
receiver's link capacity."*

The queue therefore:

* keeps one FIFO of pending pulls **per session** and serves sessions in
  round-robin order (so a single large session cannot starve others);
* emits at most one pull per *data-packet serialisation time* of the
  receiver's link, because each pull elicits one symbol-sized packet in
  return -- pacing pulls at that interval caps the aggregate arrival rate at
  the link capacity;
* sends the first pull of an idle period immediately (no pacing delay when
  the link has been idle);
* catches up on a late tick: a tick that fires ``d`` seconds after its slot
  opened sends ``1 + floor(d / pull_interval_s)`` pulls, at most an initial
  window's worth (the burst a sender already emits at start).  An event
  loop wakes up far less often than every 12 microseconds, so without this
  the pull rate would be the loop's turn rate, not the link's.  An idle
  period earns no credit.

This class is clock- and transport-agnostic: the owner injects a
:class:`~repro.utils.clock.Clock` and ``send`` (actually transmit a built
pull).  The same code runs on both bindings: one queue per simulated host
in :class:`repro.transport.polyraptor.PolyraptorAgent` on the
``Simulator``, whose ticks fire at exactly the time they were scheduled for
(so each sends one pull), and one per fetch in :mod:`repro.net.driver` on
an ``AsyncioClock``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.core.config import PolyraptorConfig
from repro.utils.clock import Clock
from repro.utils.units import serialization_delay

#: A deferred pull: a callable that builds the pull at send time (so the
#: block hint reflects the receiver's latest state); ``None`` means the
#: session completed meanwhile and the slot is discarded.
PullBuilder = Callable[[], Optional[Any]]


class PacedPullQueue:
    """One pull queue per receiving endpoint, shared by all of its sessions.

    The inter-pull gap is the serialisation time of one symbol packet on
    the endpoint's access link (``link_rate_bps``).  Since each pull elicits
    one symbol, pacing pulls *is* pacing the senders: this clock is the
    protocol's only rate control, and trimming switches absorb whatever
    transient overflow it lets through.
    """

    def __init__(
        self,
        config: PolyraptorConfig,
        link_rate_bps: float,
        clock: Clock,
        send: Callable[[Any], Any],
    ) -> None:
        self.pull_interval_s = serialization_delay(
            config.symbol_packet_bytes, link_rate_bps
        )
        self._max_burst = config.initial_window_symbols
        self._clock = clock
        self._send = send
        self._queues: dict[int, deque[PullBuilder]] = {}
        self._round_robin: deque[int] = deque()
        self._pacing = False
        #: when the next pull slot opens (meaningful while pacing)
        self.due = 0.0
        #: the handle ``clock.schedule`` returned for the next pacing tick
        self._tick: Any = None
        self.pulls_sent = 0
        self.pulls_discarded = 0

    @property
    def pending_pulls(self) -> int:
        """Number of pulls waiting to be sent across all sessions."""
        return sum(len(queue) for queue in self._queues.values())

    def pending_for_session(self, session_id: int) -> int:
        """Number of pulls waiting for one session."""
        queue = self._queues.get(session_id)
        return len(queue) if queue else 0

    def enqueue(self, session_id: int, builder: PullBuilder) -> None:
        """Add one pull for a session; starts the pacer if it was idle."""
        queue = self._queues.get(session_id)
        if queue is None:
            queue = deque()
            self._queues[session_id] = queue
        if not queue and session_id not in self._round_robin:
            self._round_robin.append(session_id)
        queue.append(builder)
        if not self._pacing:
            self._pacing = True
            self.due = self._clock.now
            self._send_next()

    def cancel_session(self, session_id: int) -> None:
        """Discard every pending pull of a session (used when it completes)."""
        queue = self._queues.pop(session_id, None)
        if queue:
            self.pulls_discarded += len(queue)
        try:
            self._round_robin.remove(session_id)
        except ValueError:
            pass

    def close(self) -> None:
        """Stop pacing for good, after every session's ``cancel_session``.

        Cancels the pending tick (it would fire once more and calls back
        into this queue) and drops ``send``, which holds the owning
        endpoint; the queue must not be used afterwards.
        """
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None
        self._send = None

    def _next_session(self) -> Optional[int]:
        for _ in range(len(self._round_robin)):
            session_id = self._round_robin[0]
            self._round_robin.rotate(-1)
            queue = self._queues.get(session_id)
            if queue:
                return session_id
        return None

    def _send_next(self) -> None:
        now = self._clock.now
        slots = 1
        late = now - self.due
        if late >= self.pull_interval_s:
            slots = min(1 + int(late / self.pull_interval_s), self._max_burst)
        for _ in range(slots):
            session_id = self._next_session()
            if session_id is None:
                # Idle: the next enqueue sends at once, with no credit.
                self._pacing = False
                return
            builder = self._queues[session_id].popleft()
            pull = builder()
            if pull is not None:
                self._send(pull)
                self.pulls_sent += 1
            else:
                # A declined pull still spends its slot.
                self.pulls_discarded += 1
        # The next slot opens one data-packet time after this tick.
        self.due = now + self.pull_interval_s
        self._tick = self._clock.schedule(self.pull_interval_s, self._send_next)
