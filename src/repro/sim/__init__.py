"""Deterministic discrete-event simulation engine.

The engine is intentionally small: a binary-heap scheduler with stable
tie-breaking (:class:`~repro.sim.engine.Simulator`), named seeded random
streams (:class:`~repro.sim.randomness.RandomStreams`) and an optional
structured trace (:mod:`repro.sim.trace`).  Everything the network substrate
and the transport protocols do is expressed as callbacks scheduled on a
single simulator.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.trace import TraceEvent, TraceLog

__all__ = [
    "Event",
    "Simulator",
    "RandomStreams",
    "TraceEvent",
    "TraceLog",
]
