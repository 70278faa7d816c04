"""Tests for unit conversions and formatting."""

import pytest

from repro.utils.units import (
    BITS_PER_BYTE,
    GBPS,
    GIGABYTE,
    KILOBYTE,
    MBPS,
    MEGABYTE,
    MICROSECOND,
    format_rate,
    serialization_delay,
)


class TestConversions:
    def test_constants_consistent(self):
        assert BITS_PER_BYTE == 8
        assert GIGABYTE == 1000 * MEGABYTE == 1_000_000 * KILOBYTE
        assert GBPS == 1000 * MBPS


class TestSerializationDelay:
    def test_full_packet_on_gigabit(self):
        # 1500 bytes at 1 Gbps = 12 microseconds.
        assert serialization_delay(1500, 1 * GBPS) == pytest.approx(12 * MICROSECOND)

    def test_scales_inversely_with_rate(self):
        assert serialization_delay(1500, 10 * GBPS) == pytest.approx(1.2 * MICROSECOND)

    def test_zero_bytes(self):
        assert serialization_delay(0, GBPS) == 0.0

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            serialization_delay(1500, 0)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            serialization_delay(1500, -1)


class TestFormatting:
    def test_format_rate_prefixes(self):
        assert "Gbps" in format_rate(1 * GBPS)
        assert "Mbps" in format_rate(30 * MBPS)
        assert format_rate(100) == "100bps"

    def test_format_rate_switches_prefix_at_the_boundary(self):
        assert format_rate(GBPS) == "1.000Gbps"
        assert format_rate(GBPS - MBPS) == "999.000Mbps"
        assert format_rate(MBPS) == "1.000Mbps"
        assert format_rate(MBPS - 1) == "999999bps"

    def test_format_rate_keeps_the_sign(self):
        assert format_rate(-2 * GBPS) == "-2.000Gbps"
        assert format_rate(-30 * MBPS) == "-30.000Mbps"
