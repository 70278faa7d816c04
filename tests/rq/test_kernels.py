"""Tests for the GF(256) kernels and the decode side of the basis lookups.

Two load-bearing properties:

1. **Kernel equivalence.**  The ``bitplane`` kernel produces byte-identical
   ``matmul`` / ``matvec`` / ``scale_rows`` results vs the ``numpy`` oracle
   (``get_kernel("numpy")``) on seeded uint8 inputs (thin and fat operators,
   word-aligned and odd symbol sizes, all-zero rows and columns, one-bit
   coefficients, read-only and non-contiguous views), and full lossy decode
   sessions come out identical when a context computes on either kernel.

2. **Decoding looks up one basis per K'** (counters straight from
   :class:`~repro.rq.backend.CodecContext`): whatever a block lost and
   however many surplus repair symbols it received, it decodes through the
   basis of its block size, and each context counts one miss per K'.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.rq.backend import CodecContext
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.rq.kernels import get_kernel
from repro.rq.params import for_k
from repro.rq.plan import build_plan, constraint_matrix

NUMPY = get_kernel("numpy")
K = 16
SYMBOL_SIZE = 64


def source_block(k: int = K, seed: int = 1) -> list[bytes]:
    rng = random.Random(seed)
    return [bytes(rng.getrandbits(8) for _ in range(SYMBOL_SIZE)) for _ in range(k)]


def _context_on(kernel: str) -> CodecContext:
    """A codec context whose products run on the named kernel."""
    context = CodecContext()
    context.kernel = get_kernel(kernel)
    return context


class TestKernelLookup:
    def test_the_codec_runs_on_bitplane(self):
        assert get_kernel().name == "bitplane"
        assert CodecContext().kernel is get_kernel("bitplane")

    def test_numpy_is_the_oracle(self):
        assert NUMPY.name == "numpy"
        assert NUMPY is not get_kernel()

    def test_instances_are_shared(self):
        assert get_kernel("bitplane") is get_kernel("bitplane")

    @pytest.mark.parametrize("name", ["bitplane", "numpy"])
    def test_each_kernel_offers_the_three_operations_by_name(self, name):
        kernel = get_kernel(name)
        assert kernel.name == name
        assert all(callable(getattr(kernel, op)) for op in ("matmul", "matvec", "scale_rows"))

    def test_unknown_names_are_rejected(self):
        for name in ("does-not-exist", "auto", "blocked", "numba"):
            with pytest.raises(ValueError, match="unknown GF\\(256\\) kernel"):
                get_kernel(name)


class TestKernelEquivalence:
    """Byte-identical results vs the numpy oracle."""

    @staticmethod
    def _cases(family: str) -> list[tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(7)
        if family == "random":
            return [(rng.integers(0, 256, (m, n), dtype=np.uint8),
                     rng.integers(0, 256, (n, t), dtype=np.uint8))
                    for m, n, t in [(1, 1, 1), (5, 8, 3), (34, 16, 130), (51, 40, 257)]]
        if family == "zeros":
            # Zero rows / zero columns / all-zero operands must short-circuit
            # identically.
            a = rng.integers(0, 256, (6, 9), dtype=np.uint8)
            b = rng.integers(0, 256, (9, 11), dtype=np.uint8)
            a[2] = 0
            a[:, 4] = 0
            b[1] = 0
            return [(a, b), (np.zeros((4, 5), dtype=np.uint8), b[:5])]
        if family == "thin-to-fat":
            # Over word-aligned (uint64 view) and odd (byte view) symbol
            # sizes, up to the real K=187 shape.
            return [(rng.integers(0, 256, (m, 187), dtype=np.uint8),
                     rng.integers(0, 256, (187, t), dtype=np.uint8))
                    for m in (0, 1, 3, 220) for t in (1, 7, 8, 1408)]
        # Coefficients confined to a single bit: each Horner step on its own.
        b = rng.integers(0, 256, (12, 24), dtype=np.uint8)
        return [(rng.integers(0, 2, (5, 12), dtype=np.uint8) << bit, b) for bit in range(8)]

    @pytest.mark.parametrize("family", ["random", "zeros", "thin-to-fat", "one-bit"])
    def test_matmul_matches_numpy(self, family):
        kernel = get_kernel()
        for a, b in self._cases(family):
            assert np.array_equal(kernel.matmul(a, b), NUMPY.matmul(a, b)), (a.shape, b.shape)

    def test_matmul_accepts_noncontiguous_views(self):
        # The generator basis is operator[:, S+H:] -- a non-contiguous view.
        rng = np.random.default_rng(8)
        a = rng.integers(0, 256, (20, 30), dtype=np.uint8)
        b = rng.integers(0, 256, (18, 40), dtype=np.uint8)
        kernel = get_kernel()
        assert np.array_equal(kernel.matmul(a[:, 12:], b), NUMPY.matmul(a[:, 12:], b))
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
            NUMPY.matmul(operator[:, constraints:], plane),
        )

    def test_matvec_matches_numpy(self):
        kernel = get_kernel()
        rng = np.random.default_rng(9)
        for m, n in [(1, 1), (7, 5), (33, 20)]:
            matrix = rng.integers(0, 256, (m, n), dtype=np.uint8)
            vector = rng.integers(0, 256, n, dtype=np.uint8)
            matrix[0] = 0
            vector[-1] = 0
            assert np.array_equal(kernel.matvec(matrix, vector), NUMPY.matvec(matrix, vector))

    def test_scale_rows_matches_numpy(self):
        kernel = get_kernel()
        rng = np.random.default_rng(10)
        rows = rng.integers(0, 256, (9, 13), dtype=np.uint8)
        rows[3] = 0
        factors = rng.integers(0, 256, 9, dtype=np.uint8)
        factors[0] = 0
        factors[5] = 0
        assert np.array_equal(kernel.scale_rows(rows, factors), NUMPY.scale_rows(rows, factors))
        zero_factors = np.zeros(9, dtype=np.uint8)
        assert np.array_equal(
            kernel.scale_rows(rows, zero_factors), NUMPY.scale_rows(rows, zero_factors)
        )

    @pytest.mark.parametrize("name", ["bitplane", "numpy"])
    def test_shape_validation_preserved(self, name):
        kernel = get_kernel(name)
        with pytest.raises(ValueError):
            kernel.matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 2), dtype=np.uint8))

    @pytest.mark.parametrize("name", ["bitplane", "numpy"])
    def test_lossy_decode_identical_across_kernels(self, name):
        source = source_block()
        baseline_encoder = BlockEncoder(source, context=_context_on("numpy"))
        rng = random.Random(4)
        kept = [esi for esi in range(K) if rng.random() > 0.3]
        repairs = list(range(K, K + (K - len(kept)) + 2))
        symbols = [(esi, baseline_encoder.symbol(esi)) for esi in kept + repairs]

        context = _context_on(name)
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
    """Every decode of a K' reads the one basis of that K', for every loss."""

    def _decode(self, context, encoder, missing, surplus):
        kept = [esi for esi in range(K) if esi not in missing]
        repairs = list(range(K, K + len(missing) + surplus))
        decoder = BlockDecoder(K, SYMBOL_SIZE, context=context)
        for esi in kept + repairs:
            decoder.add_symbol(esi, encoder.symbol(esi))
        return decoder.decode()

    def test_recurring_loss_patterns_all_hit_the_one_basis(self):
        source = source_block()
        encoder = BlockEncoder(source, context=CodecContext())
        context = CodecContext()
        # Four >=12.5% loss patterns (1-3 of 16 sources lost), each seen with
        # 2, 3 and 4 surplus repair symbols beyond the minimum.
        for surplus in (2, 3, 4):
            for missing in [(0, 1), (2, 9), (5, 11, 14), (3,)]:
                result = self._decode(context, encoder, missing, surplus)
                assert result.success and result.used_gaussian_elimination
                assert result.source_symbols == source
        # This context never encoded: its first decode is its one miss.
        assert (context.decode_stats.misses, context.decode_stats.hits) == (1, 11)
        assert context.stats.misses == 1

    def test_same_pattern_different_surplus_shares_one_basis(self):
        source = source_block()
        encoder = BlockEncoder(source, context=CodecContext())
        context = CodecContext()
        for surplus in (2, 4):
            result = self._decode(context, encoder, (1, 7), surplus)
            assert result.success and result.source_symbols == source
        # One miss total; the second, wider session hit.
        assert context.decode_stats.misses == 1
        assert context.decode_stats.hits == 1
