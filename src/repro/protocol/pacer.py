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
  the link has been idle).

This class is clock- and transport-agnostic: the owner injects ``schedule``
(a clock's ``schedule``: arrange a callback ``delay`` seconds from now and
return a handle with ``cancel()`` -- see :mod:`repro.utils.clock`) and
``send`` (actually transmit a built pull).  The same code runs on both
bindings: one queue per simulated host in
:class:`repro.transport.polyraptor.PolyraptorAgent` on
``Simulator.schedule``, one per fetch in :mod:`repro.net.driver` on
``AsyncioClock.schedule``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.core.config import PolyraptorConfig
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
        schedule: Callable[[float, Callable[[], None]], Any],
        send: Callable[[Any], Any],
    ) -> None:
        self.pull_interval_s = serialization_delay(
            config.symbol_packet_bytes, link_rate_bps
        )
        self._schedule = schedule
        self._send = send
        self._queues: dict[int, deque[PullBuilder]] = {}
        self._round_robin: deque[int] = deque()
        self._pacing = False
        #: the handle ``schedule`` returned for the next pacing tick
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
        session_id = self._next_session()
        if session_id is None:
            self._pacing = False
            return
        builder = self._queues[session_id].popleft()
        pull = builder()
        if pull is not None:
            self._send(pull)
            self.pulls_sent += 1
        else:
            self.pulls_discarded += 1
        # Pace the next pull one data-packet time later, even if the builder
        # declined to send (its slot is spent either way).
        self._tick = self._schedule(self.pull_interval_s, self._send_next)
