"""Elimination plans: eliminate one fixed matrix once, keep the inverse.

The L x L pre-code constraint matrix of the codec depends only on the code
parameters, i.e. on K'.  An :class:`EliminationPlan` captures one Gaussian
elimination of such a matrix as the fused **solution operator** ``R``
obtained by running :func:`repro.rq.solver.solve` against an identity
right-hand side, so that for any symbol plane ``D`` the solution of
``A . X = D`` is simply ``R . D``.  Optionally (``record_steps=True``) it
also keeps the ordered **row-op tape** (swap / scale / fused multiply-XOR)
the solver emitted, which :meth:`EliminationPlan.replay` re-runs step by
step; the tests use the agreement of the two to validate the operator.

The codec never replays a plan whole: because the code is systematic, the
repair symbols a sender emits and the missing source symbols of a received
block both follow from a few rows of the inverse (see
:func:`repro.rq.backend.generator_basis`, which builds one plan per K' per
process).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.rq.gf256 import gf_scale_rows, gf_scale_vector
from repro.rq.matrix import build_constraint_matrix, hdpc_rows, ldpc_rows, lt_row
from repro.rq.params import CodeParameters
from repro.rq.solver import solve


@dataclass(frozen=True)
class PlanStep:
    """One recorded row operation.

    ``kind`` is ``"swap"`` (rows = [a, b]), ``"scale"`` (rows = [row],
    factors = [factor]) or ``"xor"`` (rows = targets, factors = per-target
    multipliers, source_row = the pivot row XORed into the targets).
    """

    kind: str
    rows: np.ndarray
    factors: np.ndarray
    source_row: int = -1


class _StepRecorder:
    """Collects the row-op sequence emitted by the solver."""

    def __init__(self) -> None:
        self.steps: list[PlanStep] = []

    def swap(self, row_a: int, row_b: int) -> None:
        self.steps.append(
            PlanStep("swap", np.array([row_a, row_b], dtype=np.intp), np.empty(0, dtype=np.uint8))
        )

    def scale(self, row: int, factor: int) -> None:
        self.steps.append(
            PlanStep("scale", np.array([row], dtype=np.intp), np.array([factor], dtype=np.uint8))
        )

    def eliminate(self, source_row: int, targets: np.ndarray, factors: np.ndarray) -> None:
        self.steps.append(
            PlanStep("xor", targets.astype(np.intp), factors.astype(np.uint8), source_row)
        )


@dataclass(frozen=True)
class EliminationPlan:
    """One eliminated matrix: its fused solution operator, optionally its op tape.

    ``steps`` is the recorded row-op tape, or ``None`` when the plan was
    built with ``record_steps=False`` (the codec keeps only the operator).
    """

    num_rows: int
    num_unknowns: int
    operator: np.ndarray
    steps: Optional[tuple[PlanStep, ...]]

    def replay(self, rhs: np.ndarray) -> np.ndarray:
        """Step-by-step replay of the recorded row ops (testing path).

        Produces exactly ``operator . rhs``; tests use the agreement of the
        two to validate plan recording.
        """
        if self.steps is None:
            raise ValueError("plan was built with record_steps=False; no op tape to replay")
        work = rhs.astype(np.uint8).copy()
        for step in self.steps:
            if step.kind == "swap":
                a, b = step.rows
                work[[a, b]] = work[[b, a]]
            elif step.kind == "scale":
                work[step.rows[0]] = gf_scale_vector(work[step.rows[0]], int(step.factors[0]))
            else:
                source = work[step.source_row]
                work[step.rows] ^= gf_scale_rows(
                    np.tile(source, (step.rows.size, 1)), step.factors
                )
        return work[: self.num_unknowns]


def build_plan(
    matrix: np.ndarray,
    num_unknowns: Optional[int] = None,
    record_steps: bool = True,
) -> EliminationPlan:
    """Eliminate ``matrix`` once, recording the ops and the fused operator.

    ``record_steps=False`` keeps only the fused operator; the op tape is
    O(L^2) numpy data, so the codec's plans skip it.

    Raises :class:`repro.rq.solver.SingularMatrixError` when the matrix does
    not have full column rank, exactly like a direct solve would.
    """
    recorder = _StepRecorder() if record_steps else None
    rows = matrix.shape[0]
    identity = np.eye(rows, dtype=np.uint8)
    operator = solve(matrix, identity, num_unknowns, recorder=recorder)
    operator.setflags(write=False)
    return EliminationPlan(
        num_rows=rows,
        num_unknowns=operator.shape[0],
        operator=operator,
        steps=tuple(recorder.steps) if recorder is not None else None,
    )


# Structure caches ------------------------------------------------------------------
#
# These depend only on the (frozen, hashable) CodeParameters, so they are
# process-global: every context, session and simulation shares them.  The
# returned arrays are marked read-only; callers copy before mutating.


@lru_cache(maxsize=None)
def constraint_matrix(params: CodeParameters) -> np.ndarray:
    """The L x L pre-code constraint matrix A for one parameter set."""
    matrix = build_constraint_matrix(params)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=None)
def precode_rows(params: CodeParameters) -> np.ndarray:
    """The (S + H) x L LDPC + HDPC constraint rows for one parameter set."""
    s = params.num_ldpc_symbols
    h = params.num_hdpc_symbols
    rows = np.zeros((s + h, params.num_intermediate_symbols), dtype=np.uint8)
    rows[:s] = ldpc_rows(params)
    rows[s:] = hdpc_rows(params)
    rows.setflags(write=False)
    return rows


def received_matrix(params: CodeParameters, esis: Sequence[int]) -> np.ndarray:
    """The decode-side coefficient matrix for one set of received ESIs."""
    l = params.num_intermediate_symbols
    constraints = precode_rows(params)
    matrix = np.zeros((constraints.shape[0] + len(esis), l), dtype=np.uint8)
    matrix[: constraints.shape[0]] = constraints
    for offset, esi in enumerate(esis):
        matrix[constraints.shape[0] + offset] = lt_row(params, esi)
    return matrix
