"""Units and conversions used across the simulator.

The simulator's canonical units are:

* time     -- seconds (floats)
* size     -- bytes (ints)
* rate     -- bits per second (floats)

All helpers in this module convert to and from those canonical units so that
experiment configuration can be written in natural units (``1 * GBPS``,
``4 * MEGABYTE``, ``10 * MICROSECOND``).
"""

from __future__ import annotations

BITS_PER_BYTE = 8

# Time units expressed in seconds.
SECOND = 1.0
MILLISECOND = 1e-3
MICROSECOND = 1e-6
NANOSECOND = 1e-9

# Sizes expressed in bytes.
KILOBYTE = 1_000
MEGABYTE = 1_000_000
GIGABYTE = 1_000_000_000

# Rates expressed in bits per second.
MBPS = 1e6
GBPS = 1e9


def serialization_delay(num_bytes: float, rate_bps: float) -> float:
    """Time (seconds) needed to serialise ``num_bytes`` onto a link.

    Args:
        num_bytes: payload size in bytes.
        rate_bps: link rate in bits per second.

    Raises:
        ValueError: if ``rate_bps`` is not strictly positive.
    """
    if rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_bps}")
    return num_bytes * BITS_PER_BYTE / rate_bps


def format_rate(rate_bps: float) -> str:
    """Render a rate with an appropriate SI prefix."""
    if abs(rate_bps) >= GBPS:
        return f"{rate_bps / GBPS:.3f}Gbps"
    if abs(rate_bps) >= MBPS:
        return f"{rate_bps / MBPS:.3f}Mbps"
    return f"{rate_bps:.0f}bps"
