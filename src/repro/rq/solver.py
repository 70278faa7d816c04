"""Gaussian elimination over GF(256).

:func:`solve` serves the decoder (overdetermined system: the few received
repair symbols over the missing source symbols), the full-solve oracles the
tests compare against (every received symbol plus the static constraints
over all intermediate symbols) and the op-tape plans of the tests.
:func:`invert` serves the per-K' basis: it eliminates the constraint matrix's
binary rows over GF(2) first and leaves :func:`solve` only the small dense
block they cannot reach.  In :func:`solve` matrix and right-hand side are
eliminated as one augmented array, and each pivot's row operations are a
single gather through the GF(256) multiplication table, so the cost is
dominated by ``O(L^2)`` vectorised row operations rather than Python-level
loops over matrix cells.

:func:`solve` optionally reports every row operation it performs (swap,
scale, fused multiply-XOR) to a recorder object; :mod:`repro.rq.plan` uses
this to record an op tape the tests replay against the fused operator.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from repro.rq.gf256 import MUL_TABLE, gf_inv
from repro.rq.kernels import get_kernel


class RowOpRecorder(Protocol):
    """Receives the row operations :func:`solve` performs, in order."""

    def swap(self, row_a: int, row_b: int) -> None:
        """Rows ``row_a`` and ``row_b`` were exchanged."""

    def scale(self, row: int, factor: int) -> None:
        """Row ``row`` was multiplied by ``factor``."""

    def eliminate(self, source_row: int, targets: np.ndarray, factors: np.ndarray) -> None:
        """``rows[targets] ^= factors[:, None] * rows[source_row]`` was applied."""


class SingularMatrixError(ValueError):
    """Raised when the system does not have full column rank."""


def _reduce_column(
    work: np.ndarray, col: int, recorder: Optional[RowOpRecorder] = None
) -> bool:
    """Pivot ``work`` on column ``col`` at row ``col``, in place (Gauss-Jordan).

    Brings the first row at or below ``col`` with a non-zero entry in
    ``col`` up to ``col``, normalises its pivot to 1 and XORs the right
    multiple of it into every other row holding a non-zero in ``col``.  Each
    multiple is one gather of the pivot row through the factors' rows of the
    multiplication table.  Returns ``False`` (``work`` untouched) when no
    such row exists.
    """
    candidates = np.flatnonzero(work[col:, col])
    if not candidates.size:
        return False
    pivot = col + int(candidates[0])
    if pivot != col:
        work[[col, pivot]] = work[[pivot, col]]
        if recorder is not None:
            recorder.swap(col, pivot)
    pivot_value = int(work[col, col])
    if pivot_value != 1:
        inverse = gf_inv(pivot_value)
        work[col] = MUL_TABLE[inverse][work[col]]
        if recorder is not None:
            recorder.scale(col, inverse)
    column = work[:, col].copy()
    column[col] = 0
    targets = np.flatnonzero(column)
    if targets.size:
        factors = column[targets]
        work[targets] ^= MUL_TABLE[factors][:, work[col]]
        if recorder is not None:
            recorder.eliminate(col, targets, factors)
    return True


def solve(
    matrix: np.ndarray,
    values: np.ndarray,
    num_unknowns: Optional[int] = None,
    recorder: Optional[RowOpRecorder] = None,
) -> np.ndarray:
    """Solve ``matrix . X = values`` for X over GF(256).

    Args:
        matrix: (n, L) uint8 coefficient matrix; ``n >= L`` is required.
        values: (n, T) uint8 right-hand sides (one row of T bytes per equation).
        num_unknowns: L; defaults to ``matrix.shape[1]``.
        recorder: optional sink notified of every row operation performed;
            the recorded sequence depends only on ``matrix``, never on
            ``values``, so it can be replayed against other right-hand sides.

    Returns:
        (L, T) uint8 array of solved unknowns.

    Raises:
        SingularMatrixError: if the system does not have full column rank.
    """
    rows, cols = matrix.shape
    unknowns = cols if num_unknowns is None else num_unknowns
    if values.shape[0] != rows:
        raise ValueError(f"matrix has {rows} rows but values has {values.shape[0]}")
    if rows < unknowns:
        raise SingularMatrixError(
            f"not enough equations: {rows} rows for {unknowns} unknowns"
        )
    # One augmented array, so each row operation runs once over both sides.
    work = np.concatenate([matrix, values], axis=1, dtype=np.uint8, casting="unsafe")
    # Gauss-Jordan: column ``col`` is pivoted at row ``col`` and cleared from
    # every other row, so the solution can be read off directly at the end.
    for col in range(unknowns):
        if not _reduce_column(work, col, recorder):
            raise SingularMatrixError(f"no pivot available for column {col}")
    return np.ascontiguousarray(work[:unknowns, cols:])


def _gf2_jordan(words: np.ndarray, columns: int) -> np.ndarray:
    """Gauss-Jordan over GF(2) on bit-packed rows, in place; each row's pivot column.

    Bit ``c`` of a row is bit ``c % 64`` of its word ``c // 64``; only the
    first ``columns`` bits are pivoted on.  Raises
    :class:`SingularMatrixError` when the rows are linearly dependent.
    """
    rows = words.shape[0]
    pivots: list[int] = []
    for col in range(columns):
        rank = len(pivots)
        if rank == rows:
            break
        hits = words[:, col // 64] & np.uint64(1 << (col % 64))
        below = np.flatnonzero(hits[rank:])
        if not below.size:
            continue
        pivot = rank + int(below[0])
        words[[rank, pivot]] = words[[pivot, rank]]
        hits[[rank, pivot]] = hits[[pivot, rank]]
        hits[rank] = 0
        words[np.flatnonzero(hits)] ^= words[rank]
        pivots.append(col)
    if len(pivots) < rows:
        raise SingularMatrixError(f"{rows} binary rows have rank {len(pivots)}")
    return np.array(pivots, dtype=np.intp)


def invert(matrix: np.ndarray) -> np.ndarray:
    """``matrix^-1`` over GF(256), its binary rows eliminated over GF(2) first.

    RFC 6330 section 5.4's split.  The rows whose entries are all 0 or 1 (the
    codec's LDPC and LT rows) and their identity rows are brought to reduced
    echelon form as bit-packed ``uint64`` words.  One bitplane product then
    clears every pivot column from the h dense (HDPC) rows, which leaves them
    an h x h block over the h free columns for :func:`solve`.  The free
    unknowns, XORed back into the binary rows, give the pivot ones.  The
    inverse is unique, so this is the same array ``solve(matrix, I)`` returns.

    Raises :class:`SingularMatrixError` exactly when ``matrix`` is singular:
    binary rows dependent over GF(2) are dependent over GF(256) too, and
    otherwise ``matrix`` is invertible iff the h x h block is.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"only a square matrix has an inverse, not {matrix.shape}")
    is_binary = (matrix <= 1).all(axis=1)
    binary, dense = np.flatnonzero(is_binary), np.flatnonzero(~is_binary)
    # Each binary row beside its identity row, padded to whole words.
    bits = np.zeros((binary.size, -(-2 * n // 64) * 64), dtype=np.uint8)
    bits[:, :n] = matrix[binary]
    bits[np.arange(binary.size), n + binary] = 1
    words = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    pivots = _gf2_jordan(words, n)
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    # Dense rows beside their identity rows, minus their multiples of the
    # reduced binary rows: every pivot column of the result is zero.
    reduced = np.zeros((dense.size, bits.shape[1]), dtype=np.uint8)
    reduced[:, :n] = matrix[dense]
    reduced[np.arange(dense.size), n + dense] = 1
    reduced ^= get_kernel().matmul(matrix[dense][:, pivots], bits)
    inverse = np.empty((n, n), dtype=np.uint8)
    inverse[free] = solve(reduced[:, free], reduced[:, n : 2 * n])
    upper = bits[:, n : 2 * n].copy()
    for column in free:  # the binary rows' free-column terms, one XOR each
        upper[bits[:, column] == 1] ^= inverse[column]
    inverse[pivots] = upper
    return inverse
