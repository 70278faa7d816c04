"""TFRC controller edge cases: timer/rate behaviour at the boundaries."""

import math

import pytest

from repro.protocol.tfrc import TfrcController, tfrc_rate_bps


def make_controller(**kwargs):
    defaults = dict(segment_bytes=1472, max_rate_bps=1e9)
    defaults.update(kwargs)
    return TfrcController(**defaults)


class TestRttSampling:
    def test_zero_and_negative_samples_are_ignored(self):
        tfrc = make_controller(initial_rtt_s=1e-3)
        tfrc.on_rtt_sample(0.0)
        tfrc.on_rtt_sample(-5.0)
        assert tfrc.rtt_s == 1e-3
        assert tfrc.rate_updates == 0

    def test_first_sample_overwrites_instead_of_blending(self):
        tfrc = make_controller(initial_rtt_s=1e-3)
        tfrc.on_rtt_sample(4e-3)
        # Not an EWMA of the initial guess: the guess carries no information.
        assert tfrc.rtt_s == 4e-3

    def test_second_sample_blends_with_ewma(self):
        tfrc = make_controller(rtt_alpha=0.25)
        tfrc.on_rtt_sample(4e-3)
        tfrc.on_rtt_sample(8e-3)
        assert tfrc.rtt_s == pytest.approx(0.75 * 4e-3 + 0.25 * 8e-3)

    def test_ignored_sample_after_real_sample_keeps_state(self):
        tfrc = make_controller()
        tfrc.on_rtt_sample(4e-3)
        tfrc.on_rtt_sample(0.0)
        assert tfrc.rtt_s == 4e-3


class TestRateFloor:
    def test_consecutive_loss_clamps_to_floor_not_zero(self):
        tfrc = make_controller(max_rate_bps=1e9, min_rate_bps=1e5)
        tfrc.on_rtt_sample(1e-3)
        # One congestion signal per RTT-spaced instant, never a clean packet:
        # p climbs to 1 and the raw equation rate collapses below the floor.
        for i in range(50):
            tfrc.on_packet()
            tfrc.on_congestion(now=i * 1.0)
        assert tfrc.loss_event_rate == 1.0
        from repro.protocol.tfrc import tfrc_rate_bps as equation
        assert equation(1472, tfrc.rtt_s, 1.0) < 1e5
        assert tfrc.allowed_rate_bps == 1e5
        assert tfrc.send_interval_s() == pytest.approx(1472 * 8 / 1e5)

    def test_default_floor_is_fraction_of_ceiling(self):
        tfrc = make_controller(max_rate_bps=1e9)
        assert tfrc.min_rate_bps == pytest.approx(1e5)

    def test_rate_recovers_as_lossfree_packets_accumulate(self):
        tfrc = make_controller()
        tfrc.on_rtt_sample(1e-3)
        for i in range(10):
            tfrc.on_packet()
            tfrc.on_congestion(now=float(i))
        floored = tfrc.allowed_rate_bps
        tfrc.on_packet(100_000)
        tfrc.on_congestion(now=100.0)  # closes the long interval into history
        assert tfrc.allowed_rate_bps > floored

    def test_signals_within_one_rtt_are_one_loss_event(self):
        tfrc = make_controller(initial_rtt_s=1e-3)
        tfrc.on_packet(100)
        assert tfrc.on_congestion(now=0.0) is True
        assert tfrc.on_congestion(now=0.5e-3) is False
        assert tfrc.on_congestion(now=2e-3) is True
        assert tfrc.estimator.loss_events == 2
        assert tfrc.estimator.congestion_signals == 3


class TestCleanPath:
    def test_no_loss_means_line_rate(self):
        tfrc = make_controller(max_rate_bps=1e9)
        tfrc.on_packet(10_000)
        tfrc.on_rtt_sample(5e-3)
        assert tfrc.loss_event_rate == 0.0
        assert tfrc.allowed_rate_bps == 1e9

    def test_send_interval_uses_segment_or_override(self):
        tfrc = make_controller(segment_bytes=1000, max_rate_bps=8e6)
        assert tfrc.send_interval_s() == pytest.approx(1e-3)
        assert tfrc.send_interval_s(packet_bytes=500) == pytest.approx(0.5e-3)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(segment_bytes=0),
        dict(segment_bytes=-1),
        dict(max_rate_bps=0.0),
        dict(initial_rtt_s=0.0),
        dict(rtt_alpha=0.0),
        dict(rtt_alpha=1.5),
        dict(min_rate_bps=2e9),  # above the 1e9 ceiling
    ])
    def test_constructor_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            make_controller(**kwargs)

    def test_equation_unbounded_at_zero_loss(self):
        assert tfrc_rate_bps(1472, 1e-3, 0.0) == math.inf

    @pytest.mark.parametrize("args", [
        (0, 1e-3, 0.1),
        (1472, 0.0, 0.1),
        (1472, 1e-3, 1.5),
        (1472, 1e-3, -0.1),
    ])
    def test_equation_rejects_invalid_inputs(self, args):
        with pytest.raises(ValueError):
            tfrc_rate_bps(*args)

    def test_equation_decreases_with_loss(self):
        rates = [tfrc_rate_bps(1472, 1e-3, p) for p in (0.001, 0.01, 0.1, 0.5)]
        assert rates == sorted(rates, reverse=True)
