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


def bytes_to_bits(num_bytes: float) -> float:
    """Convert a size in bytes to a size in bits."""
    return num_bytes * BITS_PER_BYTE


def bits_to_bytes(num_bits: float) -> float:
    """Convert a size in bits to a size in bytes."""
    return num_bits / BITS_PER_BYTE


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


def format_time(seconds: float) -> str:
    """Render a duration with an appropriate SI prefix (for logs/reports)."""
    if seconds == 0:
        return "0s"
    magnitude = abs(seconds)
    if magnitude >= 1:
        return f"{seconds:.3f}s"
    if magnitude >= MILLISECOND:
        return f"{seconds / MILLISECOND:.3f}ms"
    if magnitude >= MICROSECOND:
        return f"{seconds / MICROSECOND:.3f}us"
    return f"{seconds / NANOSECOND:.1f}ns"


def format_bytes(num_bytes: float) -> str:
    """Render a byte count with an appropriate SI prefix."""
    if abs(num_bytes) >= GIGABYTE:
        return f"{num_bytes / GIGABYTE:.2f}GB"
    if abs(num_bytes) >= MEGABYTE:
        return f"{num_bytes / MEGABYTE:.2f}MB"
    if abs(num_bytes) >= KILOBYTE:
        return f"{num_bytes / KILOBYTE:.2f}KB"
    return f"{num_bytes:.0f}B"


def format_rate(rate_bps: float) -> str:
    """Render a rate with an appropriate SI prefix."""
    if abs(rate_bps) >= GBPS:
        return f"{rate_bps / GBPS:.3f}Gbps"
    if abs(rate_bps) >= MBPS:
        return f"{rate_bps / MBPS:.3f}Mbps"
    return f"{rate_bps:.0f}bps"
