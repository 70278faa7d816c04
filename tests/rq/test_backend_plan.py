"""Tests for the codec context, its lookup counters and elimination plans.

The central property: the codec (generator rows of the per-K' basis) must be
**byte-identical** to the full per-block Gaussian elimination of
:mod:`tests.rq.oracle` for every symbol it emits and every block it decodes,
across many K' values, with and without loss.
"""

from __future__ import annotations

import random
import weakref

import numpy as np
import pytest

from repro.rq.backend import CodecContext, default_context
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.rq.gf256 import gf_matmul, gf_matvec
from repro.rq.params import for_k
from repro.rq.plan import build_plan, constraint_matrix, received_matrix
from repro.rq.solver import SingularMatrixError, solve
from tests.rq import oracle

SYMBOL_SIZE = 256

#: K' values for the codec-versus-oracle equivalence sweep (acceptance: >= 5).
K_VALUES = [5, 8, 12, 21, 32, 47]


def source_block(k: int, seed: int = 1) -> list[bytes]:
    rng = random.Random(seed)
    return [bytes(rng.getrandbits(8) for _ in range(SYMBOL_SIZE)) for _ in range(k)]


def lossy_symbols(source: list[bytes], seed: int = 3) -> list[tuple[int, bytes]]:
    """The oracle's symbols surviving ~30% source loss, topped up with repairs + overhead."""
    k = len(source)
    rng = random.Random(seed)
    kept = [esi for esi in range(k) if rng.random() > 0.3]
    esis = kept + list(range(k, k + (k - len(kept)) + 2))
    return [(esi, row.tobytes()) for esi, row in zip(esis, oracle.encode(source, esis))]


class TestDefaultContext:
    def test_default_context_is_one_shared_context(self):
        assert default_context() is default_context()
        assert isinstance(default_context(), CodecContext)

    def test_coders_without_a_context_count_in_the_default_one(self):
        before = default_context().blocks_encoded
        BlockEncoder(source_block(6))
        assert default_context().blocks_encoded == before + 1


class TestCodecMatchesFullSolve:
    @pytest.mark.parametrize("k", K_VALUES)
    def test_encode_byte_identical(self, k):
        source = source_block(k)
        encoder = BlockEncoder(source, context=CodecContext())
        esis = list(range(k)) + list(range(k, k + 8))
        for esi, expected in zip(esis, oracle.encode(source, esis)):
            assert encoder.symbol(esi) == expected.tobytes(), f"esi={esi}"

    @pytest.mark.parametrize("k", K_VALUES)
    def test_lossy_round_trip_byte_identical(self, k):
        source = source_block(k)
        symbols = lossy_symbols(source)
        decoder = BlockDecoder(k, SYMBOL_SIZE, context=CodecContext())
        for esi, data in symbols:
            decoder.add_symbol(esi, data)
        result = decoder.decode()
        assert result.success and result.used_gaussian_elimination
        assert result.source_symbols == oracle.decode(k, dict(symbols)) == source

    def test_batched_symbol_block_matches_per_symbol_path(self):
        k = 16
        encoder = BlockEncoder(source_block(k), context=CodecContext())
        esis = list(range(k + 6))
        plane = encoder.symbol_block(esis)
        for row, esi in enumerate(esis):
            assert plane[row].tobytes() == encoder.symbol(esi)


class TestLookupCounters:
    def test_second_block_same_k_hits(self):
        # The basis is looked up once per block, on its first repair symbol:
        # constructing and further repairs cost no lookup.
        context = CodecContext()
        first = BlockEncoder(source_block(24, seed=1), context=context)
        assert context.stats.lookups == 0
        first.symbol(24)
        first.symbol_block(range(25, 30))
        assert (context.stats.hits, context.stats.misses) == (0, 1)
        BlockEncoder(source_block(24, seed=2), context=context).symbol(24)
        assert (context.stats.hits, context.stats.misses) == (1, 1)

    def test_distinct_k_values_each_miss_once(self):
        context = CodecContext()
        BlockEncoder(source_block(10), context=context).symbol(10)
        BlockEncoder(source_block(11), context=context).symbol(11)
        assert context.stats.misses == 2

    def test_repeated_loss_pattern_hits(self):
        k = 12
        context = CodecContext()
        symbols = lossy_symbols(source_block(k))
        for expected_hits in (0, 1):
            decoder = BlockDecoder(k, SYMBOL_SIZE, context=context)
            for esi, data in symbols:
                decoder.add_symbol(esi, data)
            assert decoder.decode().success
            assert context.stats.hits == expected_hits

    def test_full_solves_never_count(self):
        context = CodecContext()
        source = source_block(8)
        context.encode_intermediate(for_k(8), oracle.plane(source))
        assert context.stats.lookups == 0
        assert (context.blocks_encoded, context.blocks_decoded) == (0, 0)

    def test_stats_dict_shape(self):
        context = CodecContext()
        encoder = BlockEncoder(source_block(8), context=context)
        assert context.stats_dict()["blocks_encoded"] == 1  # counted at construction
        encoder.symbol(8)
        stats = context.stats_dict()
        assert set(stats) == {"blocks_encoded", "blocks_decoded", "plan_cache",
                              "decode_plan_cache"}
        assert stats["blocks_encoded"] == 1
        assert stats["plan_cache"]["misses"] == 1
        assert 0.0 <= stats["plan_cache"]["hit_rate"] <= 1.0


class TestEliminationPlan:
    def test_the_constraint_matrix_is_not_kept(self):
        """Only the generator basis is cached; the L x L matrix it was built
        from (or a rejected seed's) dies with its caller."""
        matrix = weakref.ref(constraint_matrix(for_k(248)))
        assert matrix() is None

    def test_operator_matches_direct_solve(self):
        params = for_k(9)
        matrix = constraint_matrix(params)
        plan = build_plan(matrix)
        rng = np.random.default_rng(5)
        rhs = rng.integers(0, 256, (matrix.shape[0], 17), dtype=np.uint8)
        assert np.array_equal(gf_matmul(plan.operator, rhs), solve(matrix, rhs))

    def test_step_replay_matches_fused_operator(self):
        params = for_k(13)
        matrix = constraint_matrix(params)
        plan = build_plan(matrix)
        rng = np.random.default_rng(6)
        rhs = rng.integers(0, 256, (matrix.shape[0], 9), dtype=np.uint8)
        assert np.array_equal(plan.replay(rhs), gf_matmul(plan.operator, rhs))
        assert plan.steps, "the recorded row-op sequence must not be empty"

    def test_overdetermined_decode_plan(self):
        params = for_k(6)
        k = params.num_source_symbols
        esis = tuple(range(1, k)) + (k, k + 1, k + 2)
        matrix = received_matrix(params, esis)
        plan = build_plan(matrix, num_unknowns=params.num_intermediate_symbols)
        rng = np.random.default_rng(8)
        rhs = rng.integers(0, 256, (matrix.shape[0], 3), dtype=np.uint8)
        # The plan only promises agreement with solve for consistent systems,
        # so synthesise one: rhs = matrix . X for a random X.
        x = rng.integers(0, 256, (params.num_intermediate_symbols, 3), dtype=np.uint8)
        rhs = gf_matmul(matrix, x)
        assert np.array_equal(gf_matmul(plan.operator, rhs), x)

    def test_record_steps_false_keeps_operator_only(self):
        params = for_k(7)
        matrix = constraint_matrix(params)
        lean = build_plan(matrix, record_steps=False)
        full = build_plan(matrix)
        assert lean.steps is None
        assert np.array_equal(lean.operator, full.operator)
        with pytest.raises(ValueError, match="record_steps"):
            lean.replay(np.zeros((lean.num_rows, 2), dtype=np.uint8))

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            build_plan(np.zeros((4, 4), dtype=np.uint8))


class TestGfMatmul:
    def test_matches_matvec(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 256, (6, 8), dtype=np.uint8)
        b = rng.integers(0, 256, (8, 4), dtype=np.uint8)
        product = gf_matmul(a, b)
        for column in range(4):
            assert np.array_equal(product[:, column], gf_matvec(a, b[:, column]))

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(10)
        b = rng.integers(0, 256, (5, 7), dtype=np.uint8)
        assert np.array_equal(gf_matmul(np.eye(5, dtype=np.uint8), b), b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gf_matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 2), dtype=np.uint8))
