"""The codec's encode against its oracle, the uncached full-solve encode.

The codec never forms the intermediate symbols: a repair symbol is one
generator row of the per-K' basis times the source plane.  The oracle
(:mod:`tests.rq.oracle`) solves for all L intermediate symbols and
LT-encodes them.  For block sizes from the codec's minimum to the figures'
K = 187 and every shape in which a sender asks for symbols -- one at a time,
a contiguous run, one sender's stride of a multi-source fetch, source and
repair ESIs mixed in one batch -- the two must emit the same bytes.  The
basis is looked up once per block and only when a repair is asked for, and
built once per process.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.rq import backend
from repro.rq.backend import CodecContext, generator_basis
from repro.rq.encoder import BlockEncoder
from repro.rq.params import for_k
from tests.rq import oracle

SYMBOL_SIZE = 24
K_VALUES = (4, 6, 10, 26, 101, 187)


def _source(k: int) -> list[bytes]:
    rng = np.random.default_rng(k)
    return [rng.integers(0, 256, SYMBOL_SIZE, dtype=np.uint8).tobytes() for _ in range(k)]


@lru_cache(maxsize=None)
def _intermediate(k: int) -> np.ndarray:
    return oracle.intermediate(_source(k))


def _oracle_symbols(k: int, esis) -> np.ndarray:
    return oracle.lt_encode(for_k(k), esis, _intermediate(k))


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


@pytest.mark.parametrize("shape", list(_esi_shapes(4)))
@pytest.mark.parametrize("k", K_VALUES)
def test_repairs_match_the_full_solve_bytes(k, shape):
    context = CodecContext()
    encoder = BlockEncoder(_source(k), context=context)
    esis = _esi_shapes(k)[shape]
    expected = _oracle_symbols(k, esis)
    assert np.array_equal(encoder.symbol_block(esis), expected)
    # Rows come back in the caller's order, and one at a time is the same.
    for row, esi in enumerate(esis):
        assert encoder.symbol(esi) == expected[row].tobytes(), esi
    assert encoder.repair_symbol(k) == _oracle_symbols(k, [k])[0].tobytes()
    assert context.stats.lookups == 1


@pytest.mark.parametrize("k", K_VALUES)
def test_lt_encoding_a_source_esi_returns_the_source_symbol(k):
    encoder = BlockEncoder(_source(k), context=CodecContext())
    for esi in range(k):
        assert encoder.encoded_symbol_via_lt(esi) == encoder.source_symbol(esi)
    # The full solve is systematic too.
    assert _oracle_symbols(k, range(k)).tobytes() == b"".join(_source(k))


def test_an_encoder_that_emits_only_source_symbols_never_looks_up_a_basis():
    k = 26
    context = CodecContext()
    encoder = BlockEncoder(_source(k), context=context)
    assert encoder.symbol_block(range(k)).tobytes() == b"".join(_source(k))
    assert [encoder.symbol(esi) for esi in range(k)] == _source(k)
    assert context.blocks_encoded == 1
    assert context.stats.lookups == 0


def test_same_k_encoders_look_the_basis_up_once_each():
    k, encoders = 10, 5
    context = CodecContext()
    for _ in range(encoders):
        encoder = BlockEncoder(_source(k), context=context)
        for esi in range(k, k + 4):  # several repairs, still one lookup per block
            encoder.symbol(esi)
        encoder.symbol_block(range(k + 4, k + 8))
    assert context.blocks_encoded == encoders
    assert (context.stats.misses, context.stats.hits) == (1, encoders - 1)
    assert context.decode_stats.lookups == 0


def test_the_basis_is_built_once_per_process_whatever_the_contexts(monkeypatch):
    builds = []

    def counting_build_plan(*args, **kwargs):
        builds.append(args[0].shape)
        return original(*args, **kwargs)

    original = backend.build_plan
    # Patched where generator_basis looks it up, as the benchmark tracer does.
    monkeypatch.setattr(backend, "build_plan", counting_build_plan)
    generator_basis.cache_clear()
    contexts = [CodecContext() for _ in range(3)]
    for context in contexts:
        BlockEncoder(_source(12), context=context).symbol(12)
        BlockEncoder(_source(13), context=context).symbol(13)
    assert len(builds) == 2
    # Each context still counts its own first lookup of a K' as a miss.
    assert [context.stats.misses for context in contexts] == [2, 2, 2]
    assert not generator_basis(for_k(12)).flags.writeable
