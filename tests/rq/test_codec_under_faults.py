"""Codec coverage under fault-shaped loss.

Seeded randomized encode/decode round-trip property tests at 0-30% symbol
loss -- the loss regime the fault and gray-failure models produce -- with
the context computing on the ``bitplane`` kernel and on the ``numpy``
oracle, asserting byte-identical recovery on both, encoded symbols equal to
the full-solve oracle's, and that every lossy block decodes through the
basis of its block size.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.rq.api import decode_object, encode_object
from repro.rq.backend import CodecContext
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.rq.kernels import get_kernel
from tests.rq import oracle

KERNELS = ("bitplane", "numpy")

SYMBOL_SIZE = 48
OBJECT_BYTES = 4000  # several blocks at max_symbols_per_block=32
MAX_SYMBOLS_PER_BLOCK = 32

#: (loss fraction, seed) pairs spanning the fault models' loss regime:
#: healthy, gray-failure-grade trickle, and heavy correlated damage.
LOSS_CASES = [(0.0, 101), (0.1, 102), (0.3, 103)]


def _object_bytes(seed: int = 5) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, OBJECT_BYTES, dtype=np.uint8).tobytes()


def _context_on(kernel: str) -> CodecContext:
    """A codec context whose products run on the named kernel."""
    context = CodecContext()
    context.kernel = get_kernel(kernel)
    return context


def _lossy_subset(symbols, loss: float, rng: random.Random, min_keep_per_block: dict):
    """Drop each symbol with probability ``loss``, keeping blocks decodable.

    Deterministic: the Bernoulli draws come from the caller's seeded rng;
    if a block ends up below its decodability floor, dropped symbols are
    restored in transmission order (exactly what retransmitted repair
    symbols do in the live protocol).
    """
    kept, dropped = [], []
    for symbol in symbols:
        (dropped if rng.random() < loss else kept).append(symbol)
    counts: dict[int, int] = {}
    for symbol in kept:
        counts[symbol.block_number] = counts.get(symbol.block_number, 0) + 1
    for symbol in dropped:
        block = symbol.block_number
        if counts.get(block, 0) < min_keep_per_block[block]:
            kept.append(symbol)
            counts[block] = counts.get(block, 0) + 1
    return kept


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("loss,seed", LOSS_CASES)
class TestRoundTripUnderLoss:
    def test_object_recovers_byte_identically(self, kernel, loss, seed):
        data = _object_bytes()
        context = _context_on(kernel)
        oti, symbols = encode_object(
            data, symbol_size=SYMBOL_SIZE,
            repair_symbols_per_block=MAX_SYMBOLS_PER_BLOCK,  # 100% overhead budget
            max_symbols_per_block=MAX_SYMBOLS_PER_BLOCK, context=context,
        )
        assert oti.num_source_blocks >= 3  # the multi-block regime transfers hit
        floors = {
            block: oti.block_symbol_count(block) + 2
            for block in range(oti.num_source_blocks)
        }
        received = _lossy_subset(symbols, loss, random.Random(seed), floors)
        if loss > 0:
            assert len(received) < len(symbols)  # loss actually struck
        recovered = decode_object(oti, received, context=context)
        assert recovered == data

    def test_kernels_agree_on_the_same_loss_pattern(self, kernel, loss, seed):
        """Every kernel recovers the identical bytes from the identical
        surviving symbol set (GF(256) arithmetic is exact)."""
        data = _object_bytes(seed=7)
        reference_context = _context_on("numpy")
        oti, symbols = encode_object(
            data, symbol_size=SYMBOL_SIZE,
            repair_symbols_per_block=MAX_SYMBOLS_PER_BLOCK,
            max_symbols_per_block=MAX_SYMBOLS_PER_BLOCK, context=reference_context,
        )
        floors = {
            block: oti.block_symbol_count(block) + 2
            for block in range(oti.num_source_blocks)
        }
        received = _lossy_subset(symbols, loss, random.Random(seed), floors)
        context = _context_on(kernel)
        assert decode_object(oti, received, context=context) == \
            decode_object(oti, received, context=reference_context) == data

    def test_encoded_symbols_match_the_full_solve(self, kernel, loss, seed):
        del loss, seed  # encoding is loss-independent; parametrised for sweep shape
        data = _object_bytes(seed=9)
        oti, symbols = encode_object(
            data, symbol_size=SYMBOL_SIZE, repair_symbols_per_block=4,
            max_symbols_per_block=MAX_SYMBOLS_PER_BLOCK, context=_context_on(kernel),
        )
        for block in range(oti.num_source_blocks):
            emitted = [s for s in symbols if s.block_number == block]
            k = oti.block_symbol_count(block)
            expected = oracle.encode([s.data for s in emitted[:k]], [s.esi for s in emitted])
            assert [s.data for s in emitted] == [row.tobytes() for row in expected]


class TestCanonicalPlansUnderLoss:
    K = 16

    def _sources(self, seed: int) -> list[bytes]:
        rng = np.random.default_rng(seed)
        return [
            rng.integers(0, 256, SYMBOL_SIZE, dtype=np.uint8).tobytes()
            for _ in range(self.K)
        ]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_same_missing_pattern_hits_across_surplus_counts(self, kernel):
        """Blocks that lost the same source symbols decode through the basis
        they were encoded with, however many surplus repair symbols each
        received: no decode ever misses."""
        context = _context_on(kernel)
        lost = (0, 3)  # the same two source symbols vanish from every block
        for round_number, surplus in enumerate((0, 2, 4)):
            sources = self._sources(seed=20 + round_number)
            encoder = BlockEncoder(sources, context=context)
            esis = tuple(
                esi for esi in range(self.K) if esi not in lost
            ) + tuple(range(self.K, self.K + len(lost) + surplus))
            decoder = BlockDecoder(self.K, SYMBOL_SIZE, context=context)
            for esi in esis:
                decoder.add_symbol(esi, encoder.symbol(esi))
            result = decoder.decode()
            assert result.success
            assert result.source_symbols == sources
        # The first encode missed; all three decodes hit.
        assert context.stats.misses == 1
        assert context.decode_stats.misses == 0
        assert context.decode_stats.hits == 3
