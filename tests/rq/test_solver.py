"""Tests for the GF(256) Gaussian-elimination solver and the GF(2)-first inverse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rq.gf256 import MUL_TABLE, gf_matmul, gf_matvec
from repro.rq.params import for_k
from repro.rq.plan import build_plan, constraint_matrix
from repro.rq.solver import SingularMatrixError, invert, solve
from tests.rq.oracle import gaussian_rank


def random_invertible_matrix(size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw random GF(256) matrices until one has full rank."""
    while True:
        matrix = rng.integers(0, 256, (size, size), dtype=np.uint8)
        if gaussian_rank(matrix) == size:
            return matrix


class TestGaussianRank:
    def test_identity_full_rank(self):
        assert gaussian_rank(np.eye(8, dtype=np.uint8)) == 8

    def test_zero_matrix_rank_zero(self):
        assert gaussian_rank(np.zeros((5, 5), dtype=np.uint8)) == 0

    def test_duplicate_rows_reduce_rank(self):
        matrix = np.eye(4, dtype=np.uint8)
        matrix[3] = matrix[0]
        assert gaussian_rank(matrix) == 3

    def test_input_not_modified(self):
        matrix = np.eye(4, dtype=np.uint8)
        copy = matrix.copy()
        gaussian_rank(matrix)
        assert np.array_equal(matrix, copy)


class TestSolve:
    def test_identity_system(self):
        values = np.arange(12, dtype=np.uint8).reshape(4, 3)
        solution = solve(np.eye(4, dtype=np.uint8), values)
        assert np.array_equal(solution, values)

    @pytest.mark.parametrize("size", [4, 8, 16, 32])
    def test_random_square_systems(self, size):
        rng = np.random.default_rng(size)
        matrix = random_invertible_matrix(size, rng)
        expected = rng.integers(0, 256, (size, 5), dtype=np.uint8)
        values = np.zeros_like(expected)
        for column in range(expected.shape[1]):
            values[:, column] = gf_matvec(matrix, expected[:, column])
        solution = solve(matrix, values)
        assert np.array_equal(solution, expected)

    def test_overdetermined_consistent_system(self):
        rng = np.random.default_rng(7)
        matrix = random_invertible_matrix(6, rng)
        expected = rng.integers(0, 256, (6, 2), dtype=np.uint8)
        values = np.zeros_like(expected)
        for column in range(2):
            values[:, column] = gf_matvec(matrix, expected[:, column])
        # Duplicate some equations: still solvable.
        stacked_matrix = np.vstack([matrix, matrix[:3]])
        stacked_values = np.vstack([values, values[:3]])
        solution = solve(stacked_matrix, stacked_values, num_unknowns=6)
        assert np.array_equal(solution, expected)

    def test_singular_system_raises(self):
        matrix = np.zeros((4, 4), dtype=np.uint8)
        matrix[0, 0] = 1
        with pytest.raises(SingularMatrixError):
            solve(matrix, np.zeros((4, 1), dtype=np.uint8))

    def test_underdetermined_raises(self):
        with pytest.raises(SingularMatrixError):
            solve(np.eye(3, 5, dtype=np.uint8)[:3], np.zeros((3, 1), dtype=np.uint8))

    def test_mismatched_rhs_raises(self):
        with pytest.raises(ValueError):
            solve(np.eye(4, dtype=np.uint8), np.zeros((3, 1), dtype=np.uint8))


def _mostly_binary(n: int, dense: int, density: float, defect: str, seed: int) -> np.ndarray:
    """A random 0/1 matrix with ``dense`` random GF(256) rows and an optional defect."""
    rng = np.random.default_rng(seed)
    matrix = (rng.random((n, n)) < density).astype(np.uint8)
    rows = rng.choice(n, min(dense, n), replace=False)
    matrix[rows] = rng.integers(0, 256, (rows.size, n), dtype=np.uint8)
    a, b, c = rng.integers(0, n, 3)
    if defect == "row sum" and len({a, b, c}) == 3:
        matrix[c] = matrix[a] ^ matrix[b]
    elif defect == "scaled copy" and a != b:
        matrix[b] = MUL_TABLE[int(rng.integers(2, 256))][matrix[a]]
    elif defect == "zero column":
        matrix[:, a] = 0
    return matrix


class TestInvert:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 24),
        dense=st.integers(0, 5),
        density=st.floats(0.05, 0.6),
        defect=st.sampled_from(["none", "row sum", "scaled copy", "zero column"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_the_lean_plan_is_solve_against_the_identity(self, n, dense, density, defect, seed):
        matrix = _mostly_binary(n, dense, density, defect, seed)
        try:
            expected = solve(matrix, np.eye(n, dtype=np.uint8))
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                build_plan(matrix, record_steps=False)
            return
        assert np.array_equal(build_plan(matrix, record_steps=False).operator, expected)

    @pytest.mark.parametrize("k", [4, 37, 187])
    def test_inverts_the_constraint_matrix(self, k):
        matrix = constraint_matrix(for_k(k))
        assert np.array_equal(gf_matmul(matrix, invert(matrix)), np.eye(len(matrix), dtype=np.uint8))

    def test_only_a_square_matrix_has_an_inverse(self):
        with pytest.raises(ValueError, match="square"):
            invert(np.eye(4, 3, dtype=np.uint8))
        with pytest.raises(ValueError, match="square"):
            build_plan(np.eye(4, dtype=np.uint8), num_unknowns=3, record_steps=False)

    def test_dependent_binary_rows_are_singular(self):
        matrix = np.eye(5, dtype=np.uint8)
        matrix[4] = matrix[0] ^ matrix[1]
        matrix[3, 2] = 7  # a dense row does not rescue them
        with pytest.raises(SingularMatrixError, match="binary rows"):
            invert(matrix)
