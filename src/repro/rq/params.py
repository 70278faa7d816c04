"""Code parameters derived from the number of source symbols K.

For a source block of K source symbols the codec derives:

* ``S``  -- number of LDPC constraint symbols (GF(2)),
* ``H``  -- number of HDPC constraint symbols (GF(256)),
* ``L``  -- number of intermediate symbols (``K + S + H``),
* ``W``  -- number of LT intermediate symbols,
* ``P``  -- number of PI (permanently inactive) intermediate symbols
  (``L - W``), and ``P1`` the smallest prime >= P,
* ``B``  -- ``W - S``, the number of LT symbols that are not LDPC symbols.

RFC 6330 additionally tabulates a *systematic index* ``J(K')`` per supported
K'; its only role is to guarantee that the L x L constraint matrix is
invertible so that intermediate symbols exist and the code is systematic.
Here the same guarantee is obtained by searching (and caching) the smallest
``systematic_seed`` for which the constraint matrix is invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

#: Smallest number of source symbols the codec accepts.  Blocks smaller than
#: this are padded with zero symbols by the block layer.
MIN_SOURCE_SYMBOLS = 4

#: Largest number of source symbols per block supported by this implementation.
#: (RFC 6330 supports 56403; we cap lower because the pure-Python Gaussian
#: elimination is cubic in L.  The block layer splits larger objects.)
MAX_SOURCE_SYMBOLS = 2048


def is_prime(value: int) -> bool:
    """Return True if ``value`` is a prime number."""
    if value < 2:
        return False
    if value < 4:
        return True
    if value % 2 == 0:
        return False
    for divisor in range(3, int(math.isqrt(value)) + 1, 2):
        if value % divisor == 0:
            return False
    return True


def next_prime(value: int) -> int:
    """Return the smallest prime >= ``value``."""
    candidate = max(2, value)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def _ldpc_symbol_count(k: int) -> int:
    """S: smallest prime >= ceil(0.01 K) + X with X(X-1) >= 2K (RFC 6330 shape)."""
    x = 1
    while x * (x - 1) < 2 * k:
        x += 1
    return next_prime(math.ceil(0.01 * k) + x)


def _hdpc_symbol_count(k: int, s: int) -> int:
    """H: smallest integer with C(H, ceil(H/2)) >= K + S (dense GF(256) rows)."""
    h = 6
    while math.comb(h, math.ceil(h / 2)) < k + s:
        h += 1
    return h


@dataclass(frozen=True)
class CodeParameters:
    """All derived parameters for one source-block size.

    Attributes:
        num_source_symbols: K, the number of source symbols in the block.
        num_ldpc_symbols: S.
        num_hdpc_symbols: H.
        num_intermediate_symbols: L = K + S + H.
        num_lt_symbols: W (LT intermediate symbols).
        num_pi_symbols: P = L - W (permanently inactive symbols).
        pi_prime: P1, smallest prime >= P.
        lt_non_ldpc_symbols: B = W - S.
        systematic_seed: seed for which the constraint matrix is invertible.
    """

    num_source_symbols: int
    num_ldpc_symbols: int
    num_hdpc_symbols: int
    num_intermediate_symbols: int
    num_lt_symbols: int
    num_pi_symbols: int
    pi_prime: int
    lt_non_ldpc_symbols: int
    systematic_seed: int

    @property
    def k(self) -> int:
        """Alias for :attr:`num_source_symbols`."""
        return self.num_source_symbols

    @property
    def overhead_symbols(self) -> int:
        """Recommended extra symbols to collect before attempting to decode."""
        return 2


def _structural_parameters(k: int) -> tuple[int, int, int, int, int, int, int]:
    """Compute (S, H, L, W, P, P1, B) for K source symbols."""
    s = _ldpc_symbol_count(k)
    h = _hdpc_symbol_count(k, s)
    l = k + s + h
    # PI symbols: the HDPC symbols plus a small share of the block; keeping a
    # handful of dense-ish columns out of the LT neighbourhood is what lets the
    # decoder succeed with tiny overhead.
    p = max(h + 2, math.ceil(0.05 * l))
    w = l - p
    if w <= s + 2:
        # Degenerate small blocks: fall back to a minimal PI set.
        p = h + 1
        w = l - p
    p1 = next_prime(p)
    b = w - s
    if b < 1:
        raise ValueError(f"block of {k} source symbols is too small for the pre-code")
    return s, h, l, w, p, p1, b


@lru_cache(maxsize=None)
def for_k(num_source_symbols: int) -> CodeParameters:
    """Return (and cache) the :class:`CodeParameters` for K source symbols.

    The systematic seed search imports :mod:`repro.rq.backend` lazily to
    avoid a circular import (the matrix construction needs the structural
    parameters computed here).  It builds the generator basis of the seed it
    returns, so that K' costs no second elimination.
    """
    if num_source_symbols < MIN_SOURCE_SYMBOLS:
        raise ValueError(
            f"K must be >= {MIN_SOURCE_SYMBOLS}, got {num_source_symbols} "
            "(the block layer pads smaller blocks)"
        )
    if num_source_symbols > MAX_SOURCE_SYMBOLS:
        raise ValueError(
            f"K must be <= {MAX_SOURCE_SYMBOLS}, got {num_source_symbols} "
            "(split the object into more source blocks)"
        )
    s, h, l, w, p, p1, b = _structural_parameters(num_source_symbols)

    from repro.rq.backend import find_systematic_seed

    candidate = CodeParameters(
        num_source_symbols=num_source_symbols,
        num_ldpc_symbols=s,
        num_hdpc_symbols=h,
        num_intermediate_symbols=l,
        num_lt_symbols=w,
        num_pi_symbols=p,
        pi_prime=p1,
        lt_non_ldpc_symbols=b,
        systematic_seed=0,
    )
    seed = find_systematic_seed(candidate)
    return CodeParameters(
        num_source_symbols=num_source_symbols,
        num_ldpc_symbols=s,
        num_hdpc_symbols=h,
        num_intermediate_symbols=l,
        num_lt_symbols=w,
        num_pi_symbols=p,
        pi_prime=p1,
        lt_non_ldpc_symbols=b,
        systematic_seed=seed,
    )
