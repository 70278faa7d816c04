"""Construction of the pre-code constraint matrix A.

The L x L matrix A relates the intermediate symbols C to the constraint
vector D:

* rows ``0 .. S-1``        -- LDPC constraints over GF(2) (sparse),
* rows ``S .. S+H-1``      -- HDPC constraints over GF(256) (dense),
* rows ``S+H .. L-1``      -- the LT rows of the K source symbols, i.e.
  ``A[S+H+i] . C = source_symbol_i``.

Solving ``A . C = D`` with ``D = [0 .. 0, source symbols]`` yields the
intermediate symbols; the code is systematic because the last K rows *are*
the LT rows for ISIs 0..K-1, so re-encoding those ISIs reproduces the source
symbols exactly.
"""

from __future__ import annotations

import numpy as np

from repro.rq.gf256 import ALPHA, MUL_TABLE, alpha_power
from repro.rq.params import CodeParameters
from repro.rq.rand import rand


def lt_row(params: CodeParameters, internal_symbol_id: int) -> np.ndarray:
    """Return the GF(2) LT encoding row (length L) for an internal symbol id."""
    from repro.rq.tuples import lt_neighbours

    row = np.zeros(params.num_intermediate_symbols, dtype=np.uint8)
    for index in lt_neighbours(params, internal_symbol_id):
        row[index] ^= 1
    return row


def ldpc_rows(params: CodeParameters) -> np.ndarray:
    """Return the S x L LDPC constraint rows (GF(2))."""
    s = params.num_ldpc_symbols
    b = params.lt_non_ldpc_symbols
    w = params.num_lt_symbols
    p = params.num_pi_symbols
    l = params.num_intermediate_symbols

    rows = np.zeros((s, l), dtype=np.uint8)
    # Circulant part over the B LT-only columns (RFC 6330 section 5.3.3.3).
    for i in range(b):
        a = 1 + i // s
        row = i % s
        rows[row, i] ^= 1
        row = (row + a) % s
        rows[row, i] ^= 1
        row = (row + a) % s
        rows[row, i] ^= 1
    # Identity over the S LDPC columns.
    for i in range(s):
        rows[i, b + i] ^= 1
    # Two diagonals over the PI columns.
    for i in range(s):
        rows[i, w + (i % p)] ^= 1
        rows[i, w + ((i + 1) % p)] ^= 1
    return rows


def hdpc_rows(params: CodeParameters) -> np.ndarray:
    """Return the H x L HDPC constraint rows (GF(256)).

    Built as ``MT . GAMMA`` over the first K+S columns followed by an identity
    over the H HDPC columns, following the structure of RFC 6330 section
    5.3.3.3 (coefficients are powers of alpha; the exact placement uses this
    package's ``rand`` function).
    """
    k = params.num_source_symbols
    s = params.num_ldpc_symbols
    h = params.num_hdpc_symbols
    l = params.num_intermediate_symbols
    span = k + s

    # MT: H x span sparse matrix with two ones per column (last column: alpha^j).
    mt = np.zeros((h, span), dtype=np.uint8)
    for i in range(span - 1):
        first = rand(i + 1, 6, h)
        second = (first + rand(i + 1, 7, h - 1) + 1) % h
        mt[first, i] = 1
        mt[second, i] = 1
    for j in range(h):
        mt[j, span - 1] = alpha_power(j)

    # GAMMA: span x span lower-triangular matrix with GAMMA[i][j] = alpha^(i-j).
    # The product MT . GAMMA is computed column-by-column without materialising
    # GAMMA (which would be dense and O(span^2) memory for large blocks).
    result = np.zeros((h, l), dtype=np.uint8)
    # accumulated[j] = sum_i MT[:, i] * alpha^(i - j) for i >= j.  Computing from
    # the highest column down lets us reuse the previous accumulation:
    # acc_j = MT[:, j] + alpha * acc_{j+1}.
    accumulator = np.zeros(h, dtype=np.uint8)
    columns = np.zeros((h, span), dtype=np.uint8)
    for j in range(span - 1, -1, -1):
        accumulator = MUL_TABLE[ALPHA][accumulator] ^ mt[:, j]
        columns[:, j] = accumulator
    result[:, :span] = columns
    # Identity over the H HDPC columns.
    for j in range(h):
        result[j, span + j] = 1
    return result


def build_constraint_matrix(params: CodeParameters) -> np.ndarray:
    """Return the full L x L constraint matrix A (uint8, GF(256) entries)."""
    l = params.num_intermediate_symbols
    s = params.num_ldpc_symbols
    h = params.num_hdpc_symbols
    k = params.num_source_symbols

    matrix = np.zeros((l, l), dtype=np.uint8)
    matrix[:s] = ldpc_rows(params)
    matrix[s : s + h] = hdpc_rows(params)
    for i in range(k):
        matrix[s + h + i] = lt_row(params, i)
    return matrix
