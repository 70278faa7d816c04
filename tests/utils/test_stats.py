"""Tests for statistics primitives."""

import pytest

from repro.utils.stats import CacheStats, Counter


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_increment(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)


class TestCacheStats:
    def test_unused_cache_has_zero_hit_rate(self):
        stats = CacheStats()
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0

    def test_hits_and_misses_make_the_hit_rate(self):
        stats = CacheStats("plans")
        for _ in range(3):
            stats.record_hit()
        stats.record_miss()
        stats.record_eviction()
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)
        assert stats.evictions == 1

    def test_as_dict_snapshots_every_counter(self):
        stats = CacheStats("plans")
        stats.record_hit()
        stats.record_miss()
        snapshot = stats.as_dict()
        assert snapshot == {"name": "plans", "hits": 1, "misses": 1,
                            "evictions": 0, "hit_rate": 0.5}
        stats.record_hit()
        assert snapshot["hits"] == 1  # a copy, not a live view
