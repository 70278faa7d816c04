"""The planned encode against its oracle, the uncached reference encode.

``planned`` never forms the intermediate symbols: a repair symbol is one
generator row of the cached per-K' operator times the source plane.
``reference`` solves for all L intermediate symbols and LT-encodes them.
For block sizes from the codec's minimum to the figures' K = 187 and every
shape in which a sender asks for symbols -- one at a time, a contiguous run,
one sender's stride of a multi-source fetch, source and repair ESIs mixed in
one batch -- the two must emit the same bytes, on every GF(256) kernel.  The
plan is looked up once per block and only when a repair is asked for.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.rq.backend import CodecContext
from repro.rq.encoder import BlockEncoder
from repro.rq.kernels import available_kernels

SYMBOL_SIZE = 24
K_VALUES = (4, 6, 10, 26, 101, 187)


def _source(k: int) -> list[bytes]:
    rng = np.random.default_rng(k)
    return [rng.integers(0, 256, SYMBOL_SIZE, dtype=np.uint8).tobytes() for _ in range(k)]


@lru_cache(maxsize=None)
def _oracle(k: int) -> BlockEncoder:
    return BlockEncoder(_source(k), context=CodecContext("reference"))


def _esi_shapes(k: int) -> dict[str, list[int]]:
    rng = np.random.default_rng(1000 + k)
    mixed = np.concatenate([rng.choice(k, 3, replace=False), k + rng.choice(300, 6, replace=False)])
    rng.shuffle(mixed)
    return {
        "single": [k + 17],
        "contiguous run": list(range(k, k + 12)),
        # sender i=1 of n=3 in a multi-source fetch emits K + i + n*j
        "multi-source stride": [k + 1 + 3 * j for j in range(10)],
        "mixed source+repair": [int(esi) for esi in mixed],
    }


@pytest.mark.parametrize("k", K_VALUES)
@pytest.mark.parametrize("kernel", available_kernels())
def test_planned_repairs_match_reference_bytes(kernel, k):
    context = CodecContext("planned", kernel=kernel)
    planned, oracle = BlockEncoder(_source(k), context=context), _oracle(k)
    for label, esis in _esi_shapes(k).items():
        expected = oracle.symbol_block(esis)
        assert np.array_equal(planned.symbol_block(esis), expected), (k, label)
        # Rows come back in the caller's order, and one at a time is the same.
        for row, esi in enumerate(esis):
            assert planned.symbol(esi) == expected[row].tobytes(), (k, label, esi)
    assert planned.repair_symbol(k) == oracle.repair_symbol(k)
    assert context.stats.lookups == 1 and context.cached_plans == 1


@pytest.mark.parametrize("k", K_VALUES)
@pytest.mark.parametrize("backend", ["planned", "reference"])
def test_lt_encoding_a_source_esi_returns_the_source_symbol(backend, k):
    encoder = BlockEncoder(_source(k), context=CodecContext(backend))
    for esi in range(k):
        assert encoder.encoded_symbol_via_lt(esi) == encoder.source_symbol(esi)


def test_an_encoder_that_emits_only_source_symbols_never_touches_a_plan():
    k = 26
    context = CodecContext("planned")
    encoder = BlockEncoder(_source(k), context=context)
    assert encoder.symbol_block(range(k)).tobytes() == b"".join(_source(k))
    assert [encoder.symbol(esi) for esi in range(k)] == _source(k)
    assert context.blocks_encoded == 1
    assert context.stats.lookups == 0 and context.stats.misses == 0
    assert context.cached_plans == 0


def test_same_k_encoders_share_one_plan_one_lookup_each():
    k, encoders = 10, 5
    context = CodecContext("planned")
    for _ in range(encoders):
        encoder = BlockEncoder(_source(k), context=context)
        for esi in range(k, k + 4):  # several repairs, still one lookup per block
            encoder.symbol(esi)
        encoder.symbol_block(range(k + 4, k + 8))
    assert context.blocks_encoded == encoders
    assert (context.stats.misses, context.stats.hits) == (1, encoders - 1)
    assert context.decode_stats.lookups == 0
