"""Tests for the GF(256) kernel registry and the decode side of the plan cache.

Two load-bearing properties:

1. **Kernel equivalence.**  The ``bitplane`` kernel produces byte-identical
   ``matmul`` / ``matvec`` / ``scale_rows`` results vs the ``numpy`` oracle
   on seeded uint8 inputs (thin and fat operators, word-aligned and odd
   symbol sizes, all-zero rows and columns, one-bit coefficients, read-only
   and non-contiguous views), and full lossy decode sessions come out
   identical across kernels.

2. **Decoding looks up one key per K'** (counters straight from
   :class:`~repro.rq.backend.CodecContext`): whatever a block lost and
   however many surplus repair symbols it received, it decodes through the
   plan its block size was encoded with, and no other plan is ever built.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.rq.backend import CodecContext, prewarm_encode_plans
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.rq.gf256 import gf_matmul, gf_matvec, gf_scale_rows
from repro.rq.kernels import (
    KERNEL_ENV_VAR,
    available_kernels,
    best_kernel_name,
    default_kernel_name,
    get_kernel,
)
from repro.rq.params import for_k
from repro.rq.plan import build_plan, constraint_matrix

K = 16
SYMBOL_SIZE = 64


def source_block(k: int = K, seed: int = 1) -> list[bytes]:
    rng = random.Random(seed)
    return [bytes(rng.getrandbits(8) for _ in range(SYMBOL_SIZE)) for _ in range(k)]


class TestKernelRegistry:
    def test_pure_python_kernels_always_available(self):
        assert available_kernels() == ["bitplane", "numpy"]

    def test_best_kernel_prefers_acceleration(self):
        assert best_kernel_name() == "bitplane"
        assert CodecContext("planned").kernel_name == "bitplane"

    def test_get_kernel_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown GF\\(256\\) kernel"):
            get_kernel("does-not-exist")

    def test_get_kernel_passes_instances_through(self):
        kernel = get_kernel("bitplane")
        assert get_kernel(kernel) is kernel

    def test_instances_are_shared(self):
        assert get_kernel("bitplane") is get_kernel("bitplane")

    def test_env_var_selects_kernel(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
        assert default_kernel_name() == "numpy"
        assert CodecContext("planned").kernel_name == "numpy"

    def test_env_var_bogus_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "not-a-kernel")
        with pytest.warns(RuntimeWarning, match="not an available"):
            assert default_kernel_name() == best_kernel_name()

    def test_explicit_unavailable_kernel_raises(self, monkeypatch):
        # The kernels that used to carry these names are gone: an ambient
        # choice falls back like any unknown one, an explicit one raises.
        for name in ("blocked", "numba"):
            monkeypatch.setenv(KERNEL_ENV_VAR, name)
            with pytest.warns(RuntimeWarning, match="not an available"):
                assert CodecContext("planned").kernel_name == best_kernel_name()
            with pytest.raises(ValueError, match="unknown GF\\(256\\) kernel"):
                get_kernel(name)
            with pytest.raises(ValueError, match="unknown GF\\(256\\) kernel"):
                CodecContext("planned", kernel=name)

    def test_context_reports_kernel_in_stats(self):
        context = CodecContext("planned", kernel="numpy")
        stats = context.stats_dict()
        assert stats["kernel"] == "numpy"


class TestKernelEquivalence:
    """Byte-identical results vs the numpy ground truth, for every kernel."""

    def _cases(self):
        rng = np.random.default_rng(7)
        cases = []
        for m, n, t in [(1, 1, 1), (5, 8, 3), (34, 16, 130), (51, 40, 257)]:
            a = rng.integers(0, 256, (m, n), dtype=np.uint8)
            b = rng.integers(0, 256, (n, t), dtype=np.uint8)
            cases.append((a, b))
        # Zero rows / zero columns / all-zero operands must short-circuit
        # identically.
        a = rng.integers(0, 256, (6, 9), dtype=np.uint8)
        b = rng.integers(0, 256, (9, 11), dtype=np.uint8)
        a[2] = 0
        a[:, 4] = 0
        b[1] = 0
        cases.append((a, b))
        cases.append((np.zeros((4, 5), dtype=np.uint8), b[:5]))
        # Thin to fat operators over word-aligned (uint64 view) and odd
        # (byte view) symbol sizes, up to the real K=187 shape.
        for m in (0, 1, 3, 220):
            for t in (1, 7, 8, 1408):
                a = rng.integers(0, 256, (m, 187), dtype=np.uint8)
                cases.append((a, rng.integers(0, 256, (187, t), dtype=np.uint8)))
        # Coefficients confined to a single bit: each Horner step on its own.
        b = rng.integers(0, 256, (12, 24), dtype=np.uint8)
        for bit in range(8):
            a = rng.integers(0, 2, (5, 12), dtype=np.uint8) << bit
            cases.append((a, b))
        return cases

    @pytest.mark.parametrize("name", sorted(set(available_kernels()) - {"numpy"}))
    def test_matmul_matches_numpy(self, name):
        kernel = get_kernel(name)
        for a, b in self._cases():
            assert np.array_equal(kernel.matmul(a, b), gf_matmul(a, b)), name

    @pytest.mark.parametrize("name", sorted(set(available_kernels()) - {"numpy"}))
    def test_matmul_accepts_noncontiguous_views(self, name):
        # Plan replay passes operator[:, first_row:] -- a non-contiguous view.
        rng = np.random.default_rng(8)
        a = rng.integers(0, 256, (20, 30), dtype=np.uint8)
        b = rng.integers(0, 256, (18, 40), dtype=np.uint8)
        kernel = get_kernel(name)
        assert np.array_equal(kernel.matmul(a[:, 12:], b), gf_matmul(a[:, 12:], b))
        # The shape repair generation runs: rows built from a read-only
        # column slice of the cached operator, times a strided plane.
        params = for_k(26)
        constraints = params.num_ldpc_symbols + params.num_hdpc_symbols
        operator = build_plan(constraint_matrix(params), record_steps=False).operator
        assert not operator.flags.writeable
        plane = rng.integers(0, 256, (26, 96), dtype=np.uint8)[:, ::2]
        assert not plane.flags.c_contiguous
        assert np.array_equal(
            kernel.matmul(operator[:, constraints:], plane),
            gf_matmul(operator[:, constraints:], plane),
        )

    @pytest.mark.parametrize("name", sorted(set(available_kernels()) - {"numpy"}))
    def test_matvec_matches_numpy(self, name):
        kernel = get_kernel(name)
        rng = np.random.default_rng(9)
        for m, n in [(1, 1), (7, 5), (33, 20)]:
            matrix = rng.integers(0, 256, (m, n), dtype=np.uint8)
            vector = rng.integers(0, 256, n, dtype=np.uint8)
            matrix[0] = 0
            vector[-1] = 0
            assert np.array_equal(kernel.matvec(matrix, vector), gf_matvec(matrix, vector))

    @pytest.mark.parametrize("name", sorted(set(available_kernels()) - {"numpy"}))
    def test_scale_rows_matches_numpy(self, name):
        kernel = get_kernel(name)
        rng = np.random.default_rng(10)
        rows = rng.integers(0, 256, (9, 13), dtype=np.uint8)
        rows[3] = 0
        factors = rng.integers(0, 256, 9, dtype=np.uint8)
        factors[0] = 0
        factors[5] = 0
        assert np.array_equal(kernel.scale_rows(rows, factors), gf_scale_rows(rows, factors))
        zero_factors = np.zeros(9, dtype=np.uint8)
        assert np.array_equal(
            kernel.scale_rows(rows, zero_factors), gf_scale_rows(rows, zero_factors)
        )

    @pytest.mark.parametrize("name", sorted(available_kernels()))
    def test_shape_validation_preserved(self, name):
        kernel = get_kernel(name)
        with pytest.raises(ValueError):
            kernel.matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 2), dtype=np.uint8))

    @pytest.mark.parametrize("name", sorted(available_kernels()))
    def test_lossy_decode_identical_across_kernels(self, name):
        source = source_block()
        baseline_encoder = BlockEncoder(source, context=CodecContext("planned", kernel="numpy"))
        rng = random.Random(4)
        kept = [esi for esi in range(K) if rng.random() > 0.3]
        repairs = list(range(K, K + (K - len(kept)) + 2))
        symbols = [(esi, baseline_encoder.symbol(esi)) for esi in kept + repairs]

        context = CodecContext("planned", kernel=name)
        encoder = BlockEncoder(source, context=context)
        for esi, _ in symbols:
            assert encoder.symbol(esi) == baseline_encoder.symbol(esi)
        decoder = BlockDecoder(K, SYMBOL_SIZE, context=context)
        for esi, data in symbols:
            decoder.add_symbol(esi, data)
        result = decoder.decode()
        assert result.success
        assert result.source_symbols == source


class TestCanonicalDecodeKeys:
    """The canonical decode key is ``("encode", params)``: one per K', for every loss."""

    def _decode(self, context, encoder, missing, surplus):
        kept = [esi for esi in range(K) if esi not in missing]
        repairs = list(range(K, K + len(missing) + surplus))
        decoder = BlockDecoder(K, SYMBOL_SIZE, context=context)
        for esi in kept + repairs:
            decoder.add_symbol(esi, encoder.symbol(esi))
        return decoder.decode()

    def test_recurring_loss_patterns_all_hit_the_one_plan(self):
        source = source_block()
        encoder = BlockEncoder(source, context=CodecContext("reference"))
        context = CodecContext("planned")
        # Four >=12.5% loss patterns (1-3 of 16 sources lost), each seen with
        # 2, 3 and 4 surplus repair symbols beyond the minimum.
        for surplus in (2, 3, 4):
            for missing in [(0, 1), (2, 9), (5, 11, 14), (3,)]:
                result = self._decode(context, encoder, missing, surplus)
                assert result.success and result.used_gaussian_elimination
                assert result.source_symbols == source
        # This context never encoded: the first decode builds the plan.
        assert (context.decode_stats.misses, context.decode_stats.hits) == (1, 11)
        assert context.stats.misses == 1 and context.cached_plans == 1

    def test_same_pattern_different_surplus_shares_one_plan(self):
        source = source_block()
        encoder = BlockEncoder(source, context=CodecContext("reference"))
        context = CodecContext("planned")
        for surplus in (2, 4):
            result = self._decode(context, encoder, (1, 7), surplus)
            assert result.success and result.source_symbols == source
        # One plan build total; the second, wider session hit it.
        assert context.decode_stats.misses == 1
        assert context.decode_stats.hits == 1

    def test_prewarmed_canonical_plan_covers_other_surpluses(self):
        source = source_block(seed=5)
        encoder = BlockEncoder(source, context=CodecContext("reference"))
        context = CodecContext("planned", preload=prewarm_encode_plans([K]))
        for surplus in (3, 0):
            result = self._decode(context, encoder, (0, 4), surplus)
            assert result.success
            assert result.source_symbols == source
        assert context.decode_stats.misses == 0
        assert context.decode_stats.hits == 2
