"""Straggler detection for multicast sessions (the paper's extension).

Section 2 of the paper: *"As part of our current work is to be able to detect
and eliminate straggler receivers by detaching them from the group and
exchanging symbols with them independently through a one-to-one Polyraptor
session."*

A multicast sender only multicasts a new symbol once **every** active
receiver has pulled, so one slow receiver throttles the whole group.  The
policy below watches per-receiver pull counts; a receiver whose pull count
falls more than ``lag_symbols`` behind the fastest receiver is declared a
straggler.  The sender then detaches it: it stops participating in pull
aggregation and is served through a dedicated unicast leg instead.

This module is the *detection* half of the straggler story.  The *injection*
half -- actually making a host slow, declaratively and under seed control --
lives in the fault subsystem: a ``host_slowdown`` event of a
:class:`repro.faults.schedule.FaultSchedule` (or the
:func:`repro.faults.schedule.straggler_schedule` builder) degrades the
host's NIC, and this policy then detaches it exactly as it would a
naturally slow receiver.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import PolyraptorConfig


class PathLossEstimator:
    """Per-path EWMA loss estimator fed by symbol sequence numbers.

    Every symbol a sender emits carries a per-(session, sender) ``sequence``
    counter.  The receiver differences consecutive sequence numbers: a gap
    means symbols emitted toward us never arrived (trimmed symbols still
    arrive as headers, so congestion trims do **not** count as path loss --
    only genuine disappearance does, which is exactly the gray-failure
    signature of seeded Bernoulli link loss).  Once a window's worth of
    symbols has been accounted, the window's loss fraction is folded into an
    EWMA; :attr:`loss_estimate` is 0.0 until the first window closes.
    """

    def __init__(self, window_symbols: int = 32, ewma_weight: float = 0.3) -> None:
        if window_symbols <= 0:
            raise ValueError("window_symbols must be positive")
        if not (0.0 < ewma_weight <= 1.0):
            raise ValueError("ewma_weight must be in (0, 1]")
        self.window_symbols = window_symbols
        self.ewma_weight = ewma_weight
        self._last_sequence: int | None = None
        self._window_expected = 0
        self._window_received = 0
        self.loss_estimate = 0.0
        self.windows_closed = 0

    def on_symbol(self, sequence: int) -> int:
        """Account one arriving symbol carrying the sender's emission counter.

        Returns the number of symbols newly detected as missing (the
        sequence gap this arrival exposed; 0 for in-order delivery).
        """
        if self._last_sequence is None:
            # First contact: nothing to difference against.
            self._last_sequence = sequence
            self._window_expected = 1
            self._window_received = 1
            return 0
        gap = sequence - self._last_sequence
        if gap <= 0:
            # Late (sprayed packets reorder freely) delivery: the arrival
            # that exposed the gap already counted this symbol as expected,
            # so only credit the reception -- reordering must not register
            # as loss.
            self._window_received += 1
            missing = 0
        else:
            self._window_expected += gap
            self._window_received += 1
            self._last_sequence = sequence
            missing = gap - 1
        if self._window_expected >= self.window_symbols:
            self._close_window()
        return missing

    def _close_window(self) -> None:
        lost = max(0, self._window_expected - self._window_received)
        sample = lost / self._window_expected
        self.loss_estimate = (
            (1.0 - self.ewma_weight) * self.loss_estimate
            + self.ewma_weight * sample
        )
        self.windows_closed += 1
        self._window_expected = 0
        self._window_received = 0


@dataclass(frozen=True)
class StragglerPolicy:
    """Decides which receivers of a multicast session should be detached."""

    enabled: bool = False
    lag_symbols: int = 12
    #: gray-failure side: detach receivers whose echoed per-path loss
    #: estimate exceeds ``loss_threshold``.
    loss_detection: bool = False
    loss_threshold: float = 0.05

    @classmethod
    def from_config(cls, config: PolyraptorConfig) -> StragglerPolicy:
        """The policy a Polyraptor configuration asks for."""
        return cls(
            enabled=config.straggler_detection,
            lag_symbols=config.straggler_lag_symbols,
            loss_detection=config.gray_detection,
            loss_threshold=config.gray_loss_threshold,
        )

    def find_stragglers(
        self, pulls_by_receiver: dict[int, int], active_receivers: set[int]
    ) -> set[int]:
        """Return the active receivers that lag the fastest one by more than the threshold.

        Args:
            pulls_by_receiver: total pulls received from each receiver so far.
            active_receivers: receivers still attached to the multicast group.
        """
        if not self.enabled or len(active_receivers) < 2:
            return set()
        counts = {receiver: pulls_by_receiver.get(receiver, 0) for receiver in active_receivers}
        fastest = max(counts.values())
        stragglers = {
            receiver
            for receiver, count in counts.items()
            if fastest - count > self.lag_symbols
        }
        # Never detach everyone: the fastest receiver always stays attached.
        if len(stragglers) >= len(active_receivers):
            stragglers.discard(max(counts, key=counts.get))
        return stragglers

    def find_lossy(
        self, loss_by_receiver: dict[int, float], active_receivers: set[int]
    ) -> set[int]:
        """Return the active receivers whose path loss estimate is over threshold.

        Args:
            loss_by_receiver: each receiver's latest echoed EWMA loss
                estimate for its path from this sender (missing = clean).
            active_receivers: receivers still attached to the multicast group.

        A gray-failing path hurts the whole group the same way a slow
        receiver does -- the sender multicasts a fresh symbol only when every
        active receiver pulled -- so lossy members are detached to a unicast
        leg.  As with lag detection, the cleanest receiver always stays
        attached so the group never empties.
        """
        if not self.loss_detection or len(active_receivers) < 2:
            return set()
        estimates = {
            receiver: loss_by_receiver.get(receiver, 0.0)
            for receiver in active_receivers
        }
        lossy = {
            receiver
            for receiver, estimate in estimates.items()
            if estimate > self.loss_threshold
        }
        if len(lossy) >= len(active_receivers):
            lossy.discard(min(estimates, key=estimates.get))
        return lossy
