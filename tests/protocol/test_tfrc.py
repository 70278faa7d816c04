"""Tests for the TFRC equation-based rate controller.

Covers the ISSUE satellites: the throughput equation against hand-computed
values, loss-interval bookkeeping (one event per RTT, weighted-average
history, first-event seeding) and monotonicity -- the allowed rate falls
when the loss-event rate rises and recovers when the marks stop.
"""

from __future__ import annotations

import math

import pytest

from repro.protocol.tfrc import (
    LOSS_INTERVAL_HISTORY,
    LOSS_INTERVAL_WEIGHTS,
    LossIntervalEstimator,
    TfrcController,
    tfrc_rate_bps,
)


class TestRateEquation:
    def test_zero_loss_is_unbounded(self):
        assert tfrc_rate_bps(1500, 1e-3, 0.0) == math.inf

    def test_hand_computed_value(self):
        # s=1500 B, R=1 ms, p=0.01, b=1, t_RTO=4R:
        #   X = 1500*8 / (R*sqrt(2p/3) + 4R * 3*sqrt(3p/8) * p * (1+32p^2))
        s, rtt, p = 1500, 1e-3, 0.01
        denominator = rtt * math.sqrt(2 * p / 3) + (4 * rtt) * (
            3 * math.sqrt(3 * p / 8)
        ) * p * (1 + 32 * p * p)
        expected = s * 8 / denominator
        assert tfrc_rate_bps(s, rtt, p) == pytest.approx(expected)
        # Sanity on magnitude: ~100 Mbps territory for these inputs.
        assert 10e6 < expected < 200e6

    def test_rate_decreases_with_loss(self):
        rates = [tfrc_rate_bps(1500, 1e-3, p) for p in (0.001, 0.01, 0.1, 0.5)]
        assert rates == sorted(rates, reverse=True)

    def test_rate_decreases_with_rtt(self):
        fast = tfrc_rate_bps(1500, 1e-4, 0.01)
        slow = tfrc_rate_bps(1500, 1e-2, 0.01)
        assert fast > slow

    def test_input_validation(self):
        with pytest.raises(ValueError):
            tfrc_rate_bps(0, 1e-3, 0.01)
        with pytest.raises(ValueError):
            tfrc_rate_bps(1500, 0.0, 0.01)
        with pytest.raises(ValueError):
            tfrc_rate_bps(1500, 1e-3, 1.5)


class TestLossIntervalEstimator:
    def test_no_loss_means_zero_rate(self):
        estimator = LossIntervalEstimator()
        estimator.on_packet(1000)
        assert estimator.loss_event_rate() == 0.0

    def test_first_event_seeds_history_with_run_up(self):
        # 200 clean packets then one mark: p must reflect the clean run-up
        # (1/200), not crash to 1.
        estimator = LossIntervalEstimator()
        estimator.on_packet(200)
        assert estimator.on_congestion(now=1.0, rtt_s=1e-3) is True
        assert estimator.loss_event_rate() == pytest.approx(1 / 200)

    def test_signals_within_one_rtt_are_one_event(self):
        estimator = LossIntervalEstimator()
        estimator.on_packet(100)
        assert estimator.on_congestion(now=1.0, rtt_s=1e-3) is True
        estimator.on_packet(3)
        # Two more signals inside the same RTT: same loss event.
        assert estimator.on_congestion(now=1.0 + 2e-4, rtt_s=1e-3) is False
        assert estimator.on_congestion(now=1.0 + 9e-4, rtt_s=1e-3) is False
        assert estimator.loss_events == 1
        assert estimator.congestion_signals == 3
        # A signal one RTT later opens a new event.
        assert estimator.on_congestion(now=1.0 + 2e-3, rtt_s=1e-3) is True
        assert estimator.loss_events == 2

    def test_weighted_average_bookkeeping(self):
        # Two closed intervals of 100 then 50 packets (newest first: 50, 100)
        # -> mean = (50*1 + 100*1) / 2 = 75, p = 1/75.  The open interval is
        # empty so the with-open average cannot win.
        estimator = LossIntervalEstimator()
        estimator.on_packet(100)
        estimator.on_congestion(now=1.0, rtt_s=1e-4)
        estimator.on_packet(50)
        estimator.on_congestion(now=2.0, rtt_s=1e-4)
        assert estimator.loss_event_rate() == pytest.approx(1 / 75)

    def test_open_interval_lets_rate_recover(self):
        estimator = LossIntervalEstimator()
        estimator.on_packet(10)
        estimator.on_congestion(now=1.0, rtt_s=1e-4)
        p_right_after = estimator.loss_event_rate()
        # A long clean run after the event grows the open interval; p falls.
        estimator.on_packet(1000)
        assert estimator.loss_event_rate() < p_right_after

    def test_history_is_bounded(self):
        estimator = LossIntervalEstimator()
        for event in range(3 * LOSS_INTERVAL_HISTORY):
            estimator.on_packet(10)
            estimator.on_congestion(now=float(event), rtt_s=1e-4)
        assert len(estimator._intervals) == LOSS_INTERVAL_HISTORY
        assert len(LOSS_INTERVAL_WEIGHTS) == LOSS_INTERVAL_HISTORY

    def test_validation(self):
        with pytest.raises(ValueError):
            LossIntervalEstimator(history=0)


class TestTfrcController:
    def make(self, **kwargs) -> TfrcController:
        defaults = dict(segment_bytes=1500, max_rate_bps=1e9, initial_rtt_s=1e-3)
        defaults.update(kwargs)
        return TfrcController(**defaults)

    def test_clean_path_allows_max_rate(self):
        controller = self.make()
        controller.on_packet(10_000)
        controller.on_rtt_sample(5e-4)
        assert controller.allowed_rate_bps == 1e9
        assert controller.loss_event_rate == 0.0

    def test_rate_falls_on_congestion_and_recovers_when_marks_stop(self):
        controller = self.make()
        controller.on_packet(50)
        controller.on_congestion(now=1.0)
        after_first = controller.allowed_rate_bps
        assert after_first < 1e9
        # Repeated marks, each a new loss event: the rate keeps falling.
        controller.on_packet(5)
        controller.on_congestion(now=1.1)
        controller.on_packet(5)
        controller.on_congestion(now=1.2)
        after_burst = controller.allowed_rate_bps
        assert after_burst < after_first
        # Marks stop; clean packets accumulate; the allowed rate recovers.
        recovery = []
        for _ in range(8):
            controller.on_packet(500)
            controller.on_rtt_sample(1e-3)  # triggers a recompute
            recovery.append(controller.allowed_rate_bps)
        assert recovery[-1] > after_burst
        assert recovery == sorted(recovery)

    def test_rate_floor(self):
        # p = 1 at R = 1 ms yields ~49 kbps from the raw equation; a floor
        # above that must win the clamp.
        controller = self.make(min_rate_bps=1e5)
        for event in range(50):
            controller.on_packet(1)
            controller.on_congestion(now=float(event))
        assert controller.loss_event_rate == 1.0
        assert controller.allowed_rate_bps == 1e5

    def test_rate_updates_counter_counts_changes(self):
        controller = self.make()
        assert controller.rate_updates == 0
        controller.on_rtt_sample(1e-3)  # clean path: still at max, no change
        assert controller.rate_updates == 0
        controller.on_packet(100)
        controller.on_congestion(now=1.0)
        assert controller.rate_updates == 1

    def test_rtt_ewma(self):
        controller = self.make(rtt_alpha=0.25)
        controller.on_rtt_sample(1e-3)  # first sample replaces the initial guess
        assert controller.rtt_s == pytest.approx(1e-3)
        controller.on_rtt_sample(2e-3)
        assert controller.rtt_s == pytest.approx(0.75 * 1e-3 + 0.25 * 2e-3)
        controller.on_rtt_sample(-1.0)  # ignored
        assert controller.rtt_s == pytest.approx(0.75 * 1e-3 + 0.25 * 2e-3)

    def test_send_interval_matches_rate(self):
        controller = self.make(max_rate_bps=12_000.0)
        # 1500 B at 12 kbps -> one packet per second.
        assert controller.send_interval_s() == pytest.approx(1.0)
        assert controller.send_interval_s(750) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(segment_bytes=0)
        with pytest.raises(ValueError):
            self.make(max_rate_bps=0)
        with pytest.raises(ValueError):
            self.make(min_rate_bps=2e9)  # floor above ceiling
        with pytest.raises(ValueError):
            self.make(rtt_alpha=0.0)
