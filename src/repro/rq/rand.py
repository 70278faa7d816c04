"""The codec's deterministic pseudo-random function ``Rand[y, i, m]``.

RFC 6330 defines ``Rand`` through four 256-entry tables of 32-bit constants
(V0..V3).  This implementation substitutes a hash-based construction with the
same signature and the same statistical role (see "Deviations from RFC 6330"
in ``docs/ARCHITECTURE.md``): both the encoder and the decoder in this
package use the same function, so the code remains fully self-consistent,
systematic and rateless.

The function must be *fast* (it is called several times per encoding symbol),
so it uses a splitmix64-style integer mix rather than a cryptographic hash.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _mix64(value: int) -> int:
    """A splitmix64 finalisation: a fast, well-distributed 64-bit mixer."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def rand(y: int, i: int, m: int) -> int:
    """Return a pseudo-random integer in ``[0, m)`` determined by ``(y, i)``.

    Mirrors RFC 6330's ``Rand[y, i, m]``: ``y`` is the per-symbol seed value,
    ``i`` selects one of several independent sub-streams, and ``m`` is the
    modulus.  ``m`` must be positive.
    """
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    mixed = _mix64(((y & _MASK64) << 8) ^ (i & 0xFF))
    return (mixed & _MASK32) % m
