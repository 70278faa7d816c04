"""The codec's decode against its oracle, the uncached full-solve decode.

The codec recovers the missing source symbols through the per-K' basis and
a system the size of the loss; the oracle (:mod:`tests.rq.oracle`)
eliminates the full stacked system over all L intermediate symbols and
LT-encodes them back.  On a seeded sweep of received-ESI sets -- block sizes
from the codec's minimum to the figures' K = 187, four loss shapes, 0 to 2
symbols of overhead -- the two must agree exactly: the same sets fail, and
every set that decodes yields the same bytes.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np
import pytest

from repro.rq.backend import CodecContext
from repro.rq.block import ObjectDecoder, ObjectEncoder
from repro.rq.decoder import BlockDecoder, DecodeFailure
from repro.rq.params import for_k
from repro.rq.solver import SingularMatrixError
from tests.rq import oracle

SYMBOL_SIZE = 8
#: seeded trials per (shape, overhead) cell: many where a decode is cheap
#: (and failures are likeliest), a few at the figures' block sizes
TRIALS = {4: 30, 6: 30, 10: 20, 26: 8, 101: 2, 187: 1}
OVERHEADS = (0, 1, 2)


def _few_lost(k: int, overhead: int, rng: random.Random) -> list[int]:
    lost = set(rng.sample(range(k), rng.randint(1, max(1, k // 10))))
    start = k + rng.randrange(50)
    return [e for e in range(k) if e not in lost] + list(range(start, start + len(lost) + overhead))


def _thirty_percent(k: int, overhead: int, rng: random.Random) -> list[int]:
    kept = [e for e in range(k) if rng.random() >= 0.3] or [0]
    kept = kept[: k - 1]  # at least one source is lost
    return kept + sorted(rng.sample(range(k, 3 * k + 20), k - len(kept) + overhead))


def _repair_window(k: int, overhead: int, rng: random.Random) -> list[int]:
    start = k + rng.randrange(200)
    return list(range(start, start + k + overhead))


def _strided_union(k: int, overhead: int, rng: random.Random) -> list[int]:
    """What a multi-source fetch collects: sender i of n emits ``K + i + n*j``."""
    senders = rng.choice((2, 3))
    cursor = [rng.randrange(30) for _ in range(senders)]
    esis = []
    while len(esis) < k + overhead:
        sender = rng.randrange(senders)
        esis.append(k + sender + senders * cursor[sender])
        cursor[sender] += 1
    return sorted(esis)


SHAPES = {
    "few-lost": _few_lost,
    "30%-lost": _thirty_percent,
    "repair-window": _repair_window,
    "strided-union": _strided_union,
}


def _source(k: int) -> list[bytes]:
    rng = np.random.default_rng(k)
    return [rng.integers(0, 256, SYMBOL_SIZE, dtype=np.uint8).tobytes() for _ in range(k)]


@lru_cache(maxsize=None)
def _intermediate(k: int) -> np.ndarray:
    return oracle.intermediate(_source(k))


def _received(k: int, esis: list[int]) -> dict[int, bytes]:
    """The oracle's encoding symbols ``esis`` of K's source block."""
    rows = oracle.lt_encode(for_k(k), esis, _intermediate(k))
    return {esi: row.tobytes() for esi, row in zip(esis, rows)}


def _decode(context: CodecContext, k: int, esis: list[int]):
    decoder = BlockDecoder(k, SYMBOL_SIZE, context=context)
    for esi, data in _received(k, esis).items():
        decoder.add_symbol(esi, data)
    return decoder.decode()


@lru_cache(maxsize=None)
def _oracle_cases(k: int, shape: str) -> tuple:
    """``(label, esis, oracle's source symbols or None)`` for every seeded case of one cell."""
    cases = []
    for overhead in OVERHEADS:
        for trial in range(TRIALS[k]):
            rng = random.Random(f"{k}/{shape}/{overhead}/{trial}")
            esis = SHAPES[shape](k, overhead, rng)
            assert len(set(esis)) == len(esis) == k + overhead
            cases.append((f"{shape}+{overhead}#{trial}", esis,
                          oracle.decode(k, _received(k, esis))))
    return tuple(cases)


def _all_cases(k: int) -> list:
    return [case for shape in SHAPES for case in _oracle_cases(k, shape)]


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("k", sorted(TRIALS))
def test_codec_matches_the_full_solve_on_the_seeded_sweep(k, shape):
    context = CodecContext()
    for label, esis, expected in _oracle_cases(k, shape):
        result = _decode(context, k, esis)
        assert result.success == (expected is not None), label
        assert result.source_symbols == expected, label
        if expected is not None:
            assert expected == _source(k), label
    # Every case of this cell rode the one basis the first of them looked up.
    assert context.stats.misses == 1


def test_the_sweep_exercises_both_outcomes():
    outcomes = [result is not None for k in (4, 6, 10) for _, _, result in _all_cases(k)]
    assert outcomes.count(False) >= 5 and outcomes.count(True) >= 5


def test_singular_sets_raise_the_same_typed_error():
    context = CodecContext()
    failing = [(k, esis) for k in (4, 6) for _, esis, result in _all_cases(k)
               if result is None]
    assert failing
    for k, esis in failing:
        received = _received(k, sorted(esis))
        plane = oracle.plane([received[esi] for esi in sorted(esis)])
        with pytest.raises(SingularMatrixError):
            context.recover_sources(for_k(k), sorted(esis), plane)
        with pytest.raises(SingularMatrixError):
            context.decode_intermediate(for_k(k), sorted(esis), plane)


def test_pinned_rank_deficient_window_fails_typed_then_decodes():
    """K=6, repair ESIs 40..47: K + 2 symbols that do not determine the block."""
    payload = bytes((7 + i * 131) % 251 for i in range(6 * SYMBOL_SIZE))
    encoder = ObjectEncoder(payload, symbol_size=SYMBOL_SIZE, max_symbols_per_block=8)
    window = {esi: encoder.symbol(0, esi).data for esi in range(40, 48)}
    assert oracle.decode(6, window) is None
    decoder = ObjectDecoder(encoder.oti, context=CodecContext())
    decoder.add_symbols(encoder.symbol_block(0, range(40, 48)))
    with pytest.raises(DecodeFailure, match="8 symbols for K=6"):
        decoder.decode()
    decoder.add_symbol(encoder.symbol(0, 48))
    assert decoder.decode() == payload


def test_a_context_that_never_encoded_looks_the_basis_up_as_a_decode_miss_once():
    k = 26
    context = CodecContext()
    decoded = 0
    for _, esis, expected in _all_cases(k):
        if expected is not None:
            assert _decode(context, k, esis).source_symbols == _source(k)
            decoded += 1
    assert decoded > 50
    assert context.stats.misses == 1
    assert context.decode_stats.misses == 1
    assert context.decode_stats.hits == decoded - 1
    assert context.blocks_encoded == 0 and context.blocks_decoded == decoded
