"""Named, seeded random streams.

Every stochastic component of the simulation (arrival processes, path
selection, background traffic, replica placement, ...) draws from its own
named stream derived deterministically from a single experiment seed.  This
means that, for example, changing the transport protocol under test does not
perturb the workload that is offered to it -- a property the paper's
methodology (five repetitions with different seeds, identical workload for RQ
and TCP) depends on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a master seed and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of independent, reproducible :class:`random.Random` streams."""

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream registered under ``name`` (created on first use)."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.master_seed, name))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child collection whose master seed is derived from ``name``.

        Useful when a sub-component (e.g. one transport session) wants its own
        namespace of streams.
        """
        return RandomStreams(derive_seed(self.master_seed, name))

    # Convenience draws -----------------------------------------------------

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw a uniform sample in [low, high) from stream ``name``."""
        return self.stream(name).uniform(low, high)

    def exponential(self, name: str, rate: float) -> float:
        """Draw an exponential inter-arrival time with the given rate (events/s)."""
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        return self.stream(name).expovariate(rate)

    def randint(self, name: str, low: int, high: int) -> int:
        """Draw an integer uniformly from [low, high] (inclusive)."""
        return self.stream(name).randint(low, high)

    def choice(self, name: str, options: Sequence[T]) -> T:
        """Pick one element of ``options`` uniformly at random."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        return self.stream(name).choice(options)

    def sample(self, name: str, options: Sequence[T], count: int) -> list[T]:
        """Pick ``count`` distinct elements of ``options`` uniformly at random."""
        return self.stream(name).sample(list(options), count)

    def permutation(self, name: str, count: int) -> list[int]:
        """Return a random permutation of ``range(count)``."""
        items = list(range(count))
        self.stream(name).shuffle(items)
        return items

    def poisson_process(self, name: str, rate: float) -> Iterator[float]:
        """Yield an infinite stream of absolute arrival times of a Poisson process."""
        time = 0.0
        while True:
            time += self.exponential(name, rate)
            yield time
