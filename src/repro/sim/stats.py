"""Statistics primitives collected during simulation runs.

These are deliberately simple: a named counter and a cache's hit/miss
tally.  The metric registry (:mod:`repro.obs.registry`) builds its counters
on :class:`Counter`.
"""

from __future__ import annotations

from dataclasses import dataclass


class Counter:
    """A named monotonically increasing counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        if amount < 0:
            raise ValueError("counters only move forward; use a separate counter for decrements")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for a cache, reportable as a dict.

    Used by the codec layer to surface elimination-plan cache behaviour in
    experiment reports; generic enough for any other cache the simulator
    grows.
    """

    name: str = "cache"
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def record_hit(self) -> None:
        """Count one cache hit."""
        self.hits += 1

    def record_miss(self) -> None:
        """Count one cache miss."""
        self.misses += 1

    def record_eviction(self) -> None:
        """Count one eviction."""
        self.evictions += 1

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """A plain-dict snapshot for reports and JSON artefacts."""
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
