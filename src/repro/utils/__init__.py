"""Small cross-cutting utilities: units, CDF helpers and validation."""

from repro.utils.units import (
    BITS_PER_BYTE,
    GBPS,
    GIGABYTE,
    KILOBYTE,
    MBPS,
    MEGABYTE,
    MICROSECOND,
    MILLISECOND,
    NANOSECOND,
    SECOND,
    format_rate,
    serialization_delay,
)
from repro.utils.cdf import Cdf, rank_curve
from repro.utils.validation import check_non_negative, check_positive, check_probability

__all__ = [
    "BITS_PER_BYTE",
    "GBPS",
    "GIGABYTE",
    "KILOBYTE",
    "MBPS",
    "MEGABYTE",
    "MICROSECOND",
    "MILLISECOND",
    "NANOSECOND",
    "SECOND",
    "format_rate",
    "serialization_delay",
    "Cdf",
    "rank_curve",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
