"""Tests for the metric registry primitives (gauges, histograms, rates)."""

import pytest

from repro.obs.registry import (
    DEFAULT_FCT_BOUNDS_MS,
    Gauge,
    Histogram,
    MetricRegistry,
    WindowedRate,
)
from repro.utils.stats import Counter


class TestGauge:
    def test_starts_at_zero(self):
        assert Gauge("g").value == 0.0

    def test_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_coerces_to_float(self):
        gauge = Gauge("g")
        gauge.set(7)
        assert isinstance(gauge.value, float)


class TestHistogram:
    def test_buckets_include_overflow(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        assert len(hist.buckets) == 3

    def test_observe_routes_to_buckets(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 5.0):
            hist.observe(value)
        assert hist.buckets == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(8.0)

    def test_as_dict_is_json_safe(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(0.5)
        snapshot = hist.as_dict()
        assert snapshot == {"bounds": [1.0], "buckets": [1, 0], "count": 1, "sum": 0.5}

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_rejects_duplicate_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())


class TestMetricRegistry:
    def test_counter_created_once(self):
        registry = MetricRegistry()
        counter = registry.counter("c")
        counter.increment(3)
        assert registry.counter("c") is counter
        assert isinstance(counter, Counter)
        assert len(registry) == 1

    def test_kind_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")
        with pytest.raises(TypeError):
            registry.histogram("m")

    def test_contains(self):
        registry = MetricRegistry()
        assert "g" not in registry
        registry.gauge("g")
        assert "g" in registry

    def test_histogram_default_bounds(self):
        registry = MetricRegistry()
        assert registry.histogram("fct_ms").bounds == DEFAULT_FCT_BOUNDS_MS

    def test_snapshot_is_name_sorted_and_json_safe(self):
        registry = MetricRegistry()
        registry.gauge("z").set(1.0)
        registry.counter("a").increment(2)
        registry.histogram("m", bounds=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "m", "z"]
        assert snapshot["a"] == 2
        assert snapshot["z"] == 1.0
        assert snapshot["m"]["count"] == 1


class TestWindowedRate:
    def test_no_events_rate_is_zero(self):
        assert WindowedRate().rate(5.0) == 0.0

    def test_zero_span_rate_is_zero(self):
        """The t=0 edge: one event at the query instant divides by nothing."""
        rate = WindowedRate(window_s=10.0)
        rate.record(0.0)
        assert rate.rate(0.0) == 0.0

    def test_partial_window_uses_observed_span(self):
        rate = WindowedRate(window_s=10.0)
        rate.record(0.0)
        rate.record(1.0)
        rate.record(2.0)
        # 3 events over 2 observed seconds, not diluted by the 10 s window.
        assert rate.rate(2.0) == pytest.approx(1.5)

    def test_full_window_divides_by_window(self):
        rate = WindowedRate(window_s=2.0)
        for t in range(5):
            rate.record(float(t))
        # events at t=2,3,4 survive the trailing 2 s window ending at t=4
        # (the horizon is inclusive); the divisor clamps to the window.
        assert rate.rate(4.0) == pytest.approx(1.5)

    def test_old_events_age_out(self):
        rate = WindowedRate(window_s=1.0)
        rate.record(0.0, count=100.0)
        assert rate.rate(50.0) == 0.0

    def test_reset_restarts_the_window(self):
        rate = WindowedRate(window_s=10.0)
        rate.record(0.0)
        rate.reset()
        assert rate.total == 0.0
        assert rate.rate(1.0) == 0.0

    def test_counts_accumulate(self):
        rate = WindowedRate(window_s=10.0)
        rate.record(0.0, count=2.0)
        rate.record(1.0, count=4.0)
        assert rate.total == 6.0
        assert rate.rate(1.0) == pytest.approx(6.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowedRate(window_s=0.0)
