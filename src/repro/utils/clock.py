"""The clock surface every timed component depends on, and the one timer.

A clock is whatever offers ``now`` (seconds, monotonic) and
``schedule(delay, callback, *args)`` returning a handle with ``cancel()``.
:class:`repro.sim.engine.Simulator` is the deterministic clock -- simulation
runs, the conformance replay and every deterministic test use it -- and
:class:`repro.net.driver.AsyncioClock` adapts a running asyncio event loop
to the same two members for the real UDP endpoints.

This module imports neither the simulator nor asyncio, so protocol code can
arm timers without knowing which clock drives it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol


class Clock(Protocol):
    """The two members a timed component needs from its clock."""

    @property
    def now(self) -> float:
        """The current time in seconds."""
        ...  # pragma: no cover - protocol stub

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Any:
        """Arrange ``callback(*args)`` to run ``delay`` seconds from now.

        Returns a handle whose ``cancel()`` stops the callback from running
        (an :class:`~repro.sim.engine.Event` or an ``asyncio.TimerHandle``).
        """
        ...  # pragma: no cover - protocol stub


class Timer:
    """A restartable one-shot timer on a :class:`Clock`.

    The callback fires once, ``delay`` seconds after the most recent
    :meth:`start`, unless :meth:`stop` was called first.  ``stop`` on an
    unarmed timer is a no-op, and the handle clears *before* the callback
    runs, so a callback that re-arms its own timer never cancels itself.
    """

    __slots__ = ("_clock", "_callback", "_handle")

    def __init__(self, clock: Clock, callback: Callable[[], Any]) -> None:
        self._clock = clock
        self._callback = callback
        self._handle: Optional[Any] = None

    @property
    def running(self) -> bool:
        """Whether the timer is currently armed."""
        return self._handle is not None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now; restarts if already armed."""
        if self._handle is not None:
            self._handle.cancel()
        self._handle = self._clock.schedule(delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer if it is armed."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()
