"""Event loop for the discrete-event simulator.

Design goals:

* **Determinism** -- events scheduled for the same time fire in the order
  they were scheduled (a monotonically increasing sequence number breaks
  ties), so a run is fully reproducible from its configuration and seed.
* **One heap-entry shape, ordered in C** -- every entry is a
  ``(time, seq, callback, args)`` tuple.  ``seq`` is unique, so ``heapq``
  settles every comparison on the first two fields with C tuple comparison
  and never looks further.  Every simulated packet costs two events per hop,
  and those are pushed by :meth:`Simulator.post` as bare tuples: no handle
  is built for an event nobody can cancel.  This is the hottest loop in the
  repository (see the "Simulator hot path" section of
  ``docs/PERFORMANCE.md``).
* **Cancellation without heap surgery** -- :meth:`Simulator.schedule`
  returns an :class:`Event` handle and stores it in the entry itself, as
  ``(time, seq, None, event)``.  Cancelling marks the handle; the entry is
  discarded lazily when it reaches the top of the heap.  This keeps
  :meth:`Event.cancel` O(1), and a handle cancelled after it fired leaves
  no state behind.
* **No global state** -- every component holds a reference to its simulator;
  multiple simulators can coexist in one process (useful for tests and
  parameter sweeps).
* **One clock surface** -- ``now`` plus ``schedule`` returning a handle with
  ``cancel()`` is the whole :class:`repro.utils.clock.Clock` protocol, so
  the simulator is the deterministic clock for everything timed: protocol
  sessions, TCP, the conformance replay and the net-driver tests.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Instances are created by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code only ever holds them to call
    :meth:`cancel` or to inspect :attr:`time`.  The heap holds it in a
    ``(time, seq, None, event)`` entry and never compares it.
    """

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running; mirrors ``asyncio.TimerHandle.cancel``."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.9f}, {name}, {state})"


class Simulator:
    """A single-threaded discrete-event simulator.

    Example::

        sim = Simulator()
        sim.schedule(1.0, print, "hello at t=1")
        sim.run()
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: ``(time, seq, callback, args)`` entries, or ``(time, seq, None,
        #: event)`` for a cancellable one; ``seq`` is unique, so tuple
        #: comparison never reaches the third field
        self._heap: list[tuple[float, int, Any, Any]] = []
        self._seq = 0
        self._events_processed = 0
        self._running = False
        self._stopped = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events currently in the heap (including cancelled ones)."""
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects nan, which would misorder the heap
            raise SimulationError(f"cannot schedule an event {delay}s in the past")
        if kwargs:
            callback = partial(callback, **kwargs)
        time = self._now + delay
        event = Event(time, callback, args)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, None, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback(*args, **kwargs)`` to run at absolute time ``time``."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} before current time t={self._now}"
            )
        if kwargs:
            callback = partial(callback, **kwargs)
        event = Event(time, callback, args)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, None, event))
        return event

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` ``delay`` seconds from now, with no handle.

        The fabric's two events per hop go through here: they are never
        cancelled, so no :class:`Event` is built for them.  ``delay`` is not
        checked; the caller guarantees it is a non-negative number (a port's
        rate and a link's delay are validated where they are set).
        """
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self._now + delay, seq, callback, args))

    def close(self) -> None:
        """Drop every pending event.

        A pending event holds its callback's owner (a port, a timer, an
        agent), and every owner holds the simulator: clearing the heap is
        what lets a finished run's object graph be freed by reference
        counting.  The simulator must not be run again afterwards.
        """
        self._heap.clear()

    def stop(self) -> None:
        """Request that :meth:`run` return after the current callback finishes."""
        self._stopped = True

    def peek_next_time(self) -> Optional[float]:
        """Return the time of the next pending (non-cancelled) event, or ``None``."""
        heap = self._heap
        while heap and heap[0][2] is None and heap[0][3].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop.

        Args:
            until: if given, stop once the next event would fire after this
                time (simulation time is advanced to ``until``).  A target
                before :attr:`now` is clamped to it: the clock is monotonic
                and never moves backwards.  ``nan`` raises
                :class:`SimulationError`: no event would ever be after it.
            max_events: if given, stop after processing this many events; a
                safety valve for tests.

        Returns:
            The number of events processed during this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None:
            if until != until:
                raise SimulationError("cannot run until t=nan")
            if until < self._now:
                until = self._now
        self._running = True
        self._stopped = False
        processed_before = self._events_processed
        limit = inf if until is None else until
        heap, pop = self._heap, heappop
        try:
            while heap and not self._stopped:
                time, _, callback, args = heap[0]
                if callback is None:
                    if args.cancelled:
                        pop(heap)
                        continue
                    callback, args = args.callback, args.args
                if time > limit:
                    self._now = until
                    break
                pop(heap)
                self._now = time
                self._events_processed += 1
                callback(*args)
                if max_events is not None and self._events_processed - processed_before >= max_events:
                    break
            if until is not None and not heap and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False
        return self._events_processed - processed_before
