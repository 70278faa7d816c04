"""Clock and timer abstraction for the net drivers.

The protocol cores never touch a clock; the *drivers* need one to arm the
cores' named timers and to pace pulls.  Two interchangeable schedulers
implement the same two-method surface (``time()`` and
``call_later(delay, callback)``):

* :class:`AsyncioScheduler` -- real endpoints, backed by the running event
  loop (``loop.time`` / ``loop.call_later``);
* :class:`ManualScheduler` -- deterministic tests and the conformance
  harness: a plain event heap with an explicitly advanced clock, ordered
  exactly like the simulator's (time, then scheduling order), so scripted
  traces replay identically under both drivers with no real sleeping.

:class:`NetTimer` mirrors the simulator's restartable one-shot
:class:`repro.sim.process.Timer` semantics on top of either scheduler.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Any, Callable, Optional, Protocol


class Scheduler(Protocol):
    """The minimal clock surface the net drivers depend on."""

    def time(self) -> float:
        """The current monotonic time in seconds."""
        ...  # pragma: no cover - protocol stub

    def call_later(self, delay: float, callback: Callable[[], Any]) -> Any:
        """Arrange ``callback()`` to run ``delay`` seconds from now.

        Returns a handle with a ``cancel()`` method.
        """
        ...  # pragma: no cover - protocol stub


class AsyncioScheduler:
    """Scheduler backed by a running asyncio event loop."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        # get_running_loop, not the deprecated get_event_loop: a scheduler
        # constructed outside a running loop is a bug, not a reason to spin
        # up an implicit one.
        self._loop = loop if loop is not None else asyncio.get_running_loop()

    def time(self) -> float:
        return self._loop.time()

    def call_later(self, delay: float, callback: Callable[[], Any]) -> asyncio.TimerHandle:
        return self._loop.call_later(delay, callback)


class _ManualHandle:
    """A pending callback on the manual heap; mirrors ``asyncio.TimerHandle``."""

    __slots__ = ("when", "callback", "cancelled")

    def __init__(self, when: float, callback: Callable[[], Any]) -> None:
        self.when = when
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class ManualScheduler:
    """A deterministic scheduler with an explicitly advanced clock.

    The heap holds the simulator's ``(when, seq, handle)`` entries, so
    callbacks due at the same instant run in scheduling order by the same
    C tuple comparison as :class:`repro.sim.engine.Simulator` -- which is
    what makes conformance traces replay in exactly the sim's sequence.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._heap: list[tuple[float, int, _ManualHandle]] = []
        self._seq = 0

    def time(self) -> float:
        return self._now

    def call_later(self, delay: float, callback: Callable[[], Any]) -> _ManualHandle:
        if delay < 0:
            raise ValueError(f"cannot schedule {delay}s in the past")
        handle = _ManualHandle(self._now + delay, callback)
        heapq.heappush(self._heap, (handle.when, self._seq, handle))
        self._seq += 1
        return handle

    def next_time(self) -> Optional[float]:
        """The due time of the next pending callback (None when idle)."""
        self._discard_cancelled()
        return self._heap[0][0] if self._heap else None

    def run_until(self, until: float) -> int:
        """Run every callback due at or before ``until``; advance the clock to it.

        Mirrors ``Simulator.run(until=...)``: the clock lands exactly on
        ``until`` even when no callback was due.  A target in the past is
        clamped to the current time -- the deterministic clock is monotonic
        and never moves backwards.
        """
        until = max(until, self._now)
        fired = 0
        while True:
            self._discard_cancelled()
            if not self._heap or self._heap[0][0] > until:
                break
            when, _, handle = heapq.heappop(self._heap)
            self._now = when
            handle.callback()
            fired += 1
        self._now = until
        return fired

    def _discard_cancelled(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)


class NetTimer:
    """A restartable one-shot timer over a :class:`Scheduler`.

    Semantics match :class:`repro.sim.process.Timer`: ``start`` re-arms,
    ``stop`` on an unarmed timer is a no-op, and the handle clears *before*
    the callback runs so a callback re-arming itself never self-cancels.
    """

    def __init__(self, scheduler: Scheduler, callback: Callable[[], Any]) -> None:
        self._scheduler = scheduler
        self._callback = callback
        self._handle: Optional[Any] = None

    @property
    def running(self) -> bool:
        """Whether the timer is currently armed."""
        return self._handle is not None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now; restarts if already armed."""
        self.stop()
        self._handle = self._scheduler.call_later(delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer if it is armed."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()
