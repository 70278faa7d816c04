"""Tiny argument-validation helpers shared by configuration objects."""

from __future__ import annotations


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if strictly positive, otherwise raise ``ValueError`` (nan included)."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Return ``value`` if >= 0, otherwise raise ``ValueError`` (nan included)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Return ``value`` if it lies in [0, 1], otherwise raise ``ValueError``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value
