"""Tests for the codec backend registry and the elimination-plan cache.

The central property: the ``planned`` backend (cached elimination plans,
batched symbol-plane replay) must be **byte-identical** to the ``reference``
backend (full per-block Gaussian elimination) for every symbol it emits and
every block it decodes, across many K' values, with and without loss.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.rq.backend import (
    DEFAULT_BACKEND,
    CodecContext,
    available_backends,
    create_backend,
    default_context,
)
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.rq.gf256 import gf_matmul, gf_matvec
from repro.rq.params import for_k
from repro.rq.plan import PlanCache, build_plan, constraint_matrix, received_matrix
from repro.rq.solver import SingularMatrixError, solve

SYMBOL_SIZE = 256

#: K' values for the cross-backend equivalence sweep (acceptance: >= 5).
K_VALUES = [5, 8, 12, 21, 32, 47]


def source_block(k: int, seed: int = 1) -> list[bytes]:
    rng = random.Random(seed)
    return [bytes(rng.getrandbits(8) for _ in range(SYMBOL_SIZE)) for _ in range(k)]


def lossy_symbols(encoder: BlockEncoder, k: int, seed: int = 3) -> list[tuple[int, bytes]]:
    """Symbols surviving ~30% source loss, topped up with repairs + overhead."""
    rng = random.Random(seed)
    kept = [esi for esi in range(k) if rng.random() > 0.3]
    repair = list(range(k, k + (k - len(kept)) + 2))
    return [(esi, encoder.symbol(esi)) for esi in kept + repair]


class TestBackendRegistry:
    def test_both_backends_registered(self):
        assert {"reference", "planned"} <= set(available_backends())

    def test_default_backend_is_planned(self):
        assert DEFAULT_BACKEND == "planned"
        assert default_context().backend_name in available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown codec backend"):
            create_backend("does-not-exist")

    def test_context_accepts_instance(self):
        context = CodecContext(create_backend("reference"))
        assert context.backend_name == "reference"


class TestBackendEquivalence:
    @pytest.mark.parametrize("k", K_VALUES)
    def test_encode_byte_identical(self, k):
        source = source_block(k)
        reference = BlockEncoder(source, context=CodecContext("reference"))
        planned = BlockEncoder(source, context=CodecContext("planned"))
        for esi in list(range(k)) + list(range(k, k + 8)):
            assert reference.symbol(esi) == planned.symbol(esi), f"esi={esi}"

    @pytest.mark.parametrize("k", K_VALUES)
    def test_lossy_round_trip_byte_identical(self, k):
        source = source_block(k)
        encoder = BlockEncoder(source, context=CodecContext("reference"))
        symbols = lossy_symbols(encoder, k)
        decoded = {}
        for backend in ("reference", "planned"):
            decoder = BlockDecoder(k, SYMBOL_SIZE, context=CodecContext(backend))
            for esi, data in symbols:
                decoder.add_symbol(esi, data)
            result = decoder.decode()
            assert result.success and result.used_gaussian_elimination, backend
            decoded[backend] = result.source_symbols
        assert decoded["reference"] == decoded["planned"]
        assert b"".join(decoded["planned"]) == b"".join(source)

    def test_batched_symbol_block_matches_per_symbol_path(self):
        k = 16
        encoder = BlockEncoder(source_block(k), context=CodecContext("planned"))
        esis = list(range(k + 6))
        plane = encoder.symbol_block(esis)
        for row, esi in enumerate(esis):
            assert plane[row].tobytes() == encoder.symbol(esi)


class TestPlanCacheBehaviour:
    def test_second_block_same_k_hits_cache(self):
        # The plan is looked up once per block, on its first repair symbol:
        # constructing and further repairs cost no lookup.
        context = CodecContext("planned")
        first = BlockEncoder(source_block(24, seed=1), context=context)
        assert context.stats.lookups == 0
        first.symbol(24)
        first.symbol_block(range(25, 30))
        assert (context.stats.hits, context.stats.misses) == (0, 1)
        BlockEncoder(source_block(24, seed=2), context=context).symbol(24)
        assert (context.stats.hits, context.stats.misses) == (1, 1)

    def test_distinct_k_values_do_not_share_plans(self):
        context = CodecContext("planned")
        BlockEncoder(source_block(10), context=context).symbol(10)
        BlockEncoder(source_block(11), context=context).symbol(11)
        assert context.stats.misses == 2
        assert context.cached_plans == 2

    def test_repeated_loss_pattern_hits_decode_cache(self):
        k = 12
        context = CodecContext("planned")
        encoder = BlockEncoder(source_block(k), context=CodecContext("reference"))
        symbols = lossy_symbols(encoder, k)
        for expected_hits in (0, 1):
            decoder = BlockDecoder(k, SYMBOL_SIZE, context=context)
            for esi, data in symbols:
                decoder.add_symbol(esi, data)
            assert decoder.decode().success
            assert context.stats.hits == expected_hits

    def test_reference_backend_never_touches_cache(self):
        context = CodecContext("reference")
        BlockEncoder(source_block(8), context=context)
        assert context.stats.lookups == 0
        assert context.blocks_encoded == 1

    def test_stats_dict_shape(self):
        context = CodecContext("planned")
        encoder = BlockEncoder(source_block(8), context=context)
        assert context.stats_dict()["blocks_encoded"] == 1  # counted at construction
        encoder.symbol(8)
        stats = context.stats_dict()
        assert stats["backend"] == "planned"
        assert stats["blocks_encoded"] == 1
        assert stats["plan_cache"]["misses"] == 1
        assert 0.0 <= stats["plan_cache"]["hit_rate"] <= 1.0

    def test_lru_eviction_is_bounded(self):
        cache = PlanCache(max_entries=2)
        plan = build_plan(np.eye(3, dtype=np.uint8))
        for key in ("a", "b", "c"):
            cache.get_or_build(key, lambda: plan)
        assert len(cache) == 2
        assert cache.evictions == 1
        # "a" was evicted (least recently used); "c" is still cached.
        assert cache.get_or_build("c", lambda: plan)[1] is True
        assert cache.get_or_build("a", lambda: plan)[1] is False


class TestEliminationPlan:
    def test_operator_matches_direct_solve(self):
        params = for_k(9)
        matrix = constraint_matrix(params)
        plan = build_plan(matrix)
        rng = np.random.default_rng(5)
        rhs = rng.integers(0, 256, (matrix.shape[0], 17), dtype=np.uint8)
        assert np.array_equal(plan.apply(rhs), solve(matrix, rhs))

    def test_step_replay_matches_fused_operator(self):
        params = for_k(13)
        matrix = constraint_matrix(params)
        plan = build_plan(matrix)
        rng = np.random.default_rng(6)
        rhs = rng.integers(0, 256, (matrix.shape[0], 9), dtype=np.uint8)
        assert np.array_equal(plan.replay(rhs), plan.apply(rhs))
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
        assert np.array_equal(plan.apply(rhs), x)

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

    def test_wrong_rhs_shape_rejected(self):
        plan = build_plan(np.eye(4, dtype=np.uint8))
        with pytest.raises(ValueError):
            plan.apply(np.zeros((5, 2), dtype=np.uint8))


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
