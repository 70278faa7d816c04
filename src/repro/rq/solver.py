"""Gaussian elimination over GF(256).

The solver is shared by the encoder (square system: constraint matrix ->
intermediate symbols) and the decoder (overdetermined system: the few
received repair symbols over the missing source symbols, or -- in the
reference backend -- every received symbol plus the static constraints over
all intermediate symbols).  Matrix and right-hand side are eliminated as one
augmented array, and each pivot's row operations are a single gather through
the GF(256) multiplication table, so the cost is dominated by ``O(L^2)``
vectorised row operations rather than Python-level loops over matrix cells.

:func:`solve` optionally reports every row operation it performs (swap,
scale, fused multiply-XOR) to a recorder object.  :mod:`repro.rq.plan` uses
this to capture the elimination of a fixed matrix once and replay it over
the symbol plane of every later block with the same code parameters.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from repro.rq.gf256 import MUL_TABLE, gf_inv


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
    work: np.ndarray,
    rank: int,
    col: int,
    jordan: bool,
    recorder: Optional[RowOpRecorder] = None,
) -> bool:
    """Pivot ``work`` on column ``col`` at row ``rank``, in place.

    Brings the first row at or below ``rank`` with a non-zero entry in
    ``col`` up to ``rank``, normalises its pivot to 1 and XORs the right
    multiple of it into every other row holding a non-zero in ``col`` --
    every row when ``jordan`` (Gauss-Jordan), only those below ``rank``
    otherwise.  Each multiple is one gather of the pivot row through the
    factors' rows of the multiplication table.  Returns ``False`` (``work``
    untouched) when no such row exists.
    """
    candidates = np.flatnonzero(work[rank:, col])
    if not candidates.size:
        return False
    pivot = rank + int(candidates[0])
    if pivot != rank:
        work[[rank, pivot]] = work[[pivot, rank]]
        if recorder is not None:
            recorder.swap(rank, pivot)
    pivot_value = int(work[rank, col])
    if pivot_value != 1:
        inverse = gf_inv(pivot_value)
        work[rank] = MUL_TABLE[inverse][work[rank]]
        if recorder is not None:
            recorder.scale(rank, inverse)
    first = 0 if jordan else rank + 1
    column = work[first:, col].copy()
    if jordan:
        column[rank] = 0
    nonzero = np.flatnonzero(column)
    if nonzero.size:
        targets, factors = first + nonzero, column[nonzero]
        work[targets] ^= MUL_TABLE[factors][:, work[rank]]
        if recorder is not None:
            recorder.eliminate(rank, targets, factors)
    return True


def gaussian_rank(matrix: np.ndarray) -> int:
    """Return the rank of ``matrix`` over GF(256) (the input is not modified)."""
    work = matrix.astype(np.uint8)
    rows, cols = work.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        if _reduce_column(work, rank, col, jordan=False):
            rank += 1
    return rank


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
        if not _reduce_column(work, col, col, jordan=True, recorder=recorder):
            raise SingularMatrixError(f"no pivot available for column {col}")
    return np.ascontiguousarray(work[:unknowns, cols:])
