"""The planned decode against its oracle, the uncached reference decode.

``planned`` recovers the missing source symbols through the per-K' plan and
a system the size of the loss; ``reference`` eliminates the full stacked
system over all L intermediate symbols and LT-encodes them back.  On a
seeded sweep of received-ESI sets -- block sizes from the codec's minimum to
the figures' K = 187, four loss shapes, 0 to 2 symbols of overhead -- the two
must agree exactly: the same sets fail, and every set that decodes yields
the same bytes, on every GF(256) kernel.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np
import pytest

from repro.rq.backend import CodecContext
from repro.rq.block import ObjectDecoder, ObjectEncoder
from repro.rq.decoder import BlockDecoder, DecodeFailure
from repro.rq.encoder import BlockEncoder
from repro.rq.kernels import available_kernels
from repro.rq.params import for_k
from repro.rq.solver import SingularMatrixError

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
def _encoder(k: int) -> BlockEncoder:
    return BlockEncoder(_source(k), context=CodecContext("reference"))


def _decode(context: CodecContext, k: int, esis: list[int]):
    decoder = BlockDecoder(k, SYMBOL_SIZE, context=context)
    for esi in esis:
        decoder.add_symbol(esi, _encoder(k).symbol(esi))
    return decoder.decode()


@lru_cache(maxsize=None)
def _oracle_cases(k: int) -> tuple:
    """``(label, esis, reference DecodeResult)`` for every seeded case of one K."""
    reference = CodecContext("reference")
    cases = []
    for shape, build in SHAPES.items():
        for overhead in OVERHEADS:
            for trial in range(TRIALS[k]):
                rng = random.Random(f"{k}/{shape}/{overhead}/{trial}")
                esis = build(k, overhead, rng)
                assert len(set(esis)) == len(esis) == k + overhead
                cases.append((f"{shape}+{overhead}#{trial}", esis, _decode(reference, k, esis)))
    return tuple(cases)


@pytest.mark.parametrize("k", sorted(TRIALS))
@pytest.mark.parametrize("kernel", available_kernels())
def test_planned_matches_reference_on_the_seeded_sweep(kernel, k):
    planned = CodecContext("planned", kernel=kernel)
    for label, esis, expected in _oracle_cases(k):
        result = _decode(planned, k, esis)
        assert result.success == expected.success, (k, label)
        assert result.source_symbols == expected.source_symbols, (k, label)
        if expected.success:
            assert result.source_symbols == _source(k), (k, label)
    # Every case of this K rode the one plan the first of them built.
    assert planned.stats.misses == 1 and planned.cached_plans == 1


def test_the_sweep_exercises_both_outcomes():
    outcomes = [result.success for k in (4, 6, 10) for _, _, result in _oracle_cases(k)]
    assert outcomes.count(False) >= 5 and outcomes.count(True) >= 5


@pytest.mark.parametrize("backend", ["planned", "reference"])
def test_singular_sets_raise_the_same_typed_error(backend):
    context = CodecContext(backend)
    failing = [(k, esis) for k in (4, 6) for _, esis, result in _oracle_cases(k)
               if not result.success]
    for k, esis in failing:
        plane = np.array(
            [np.frombuffer(_encoder(k).symbol(esi), dtype=np.uint8) for esi in sorted(esis)]
        )
        with pytest.raises(SingularMatrixError):
            context.recover_sources(for_k(k), sorted(esis), plane)


@pytest.mark.parametrize("backend", ["planned", "reference"])
def test_pinned_rank_deficient_window_fails_typed_then_decodes(backend):
    """K=6, repair ESIs 40..47: K + 2 symbols that do not determine the block."""
    payload = bytes((7 + i * 131) % 251 for i in range(6 * SYMBOL_SIZE))
    encoder = ObjectEncoder(payload, symbol_size=SYMBOL_SIZE, max_symbols_per_block=8)
    decoder = ObjectDecoder(encoder.oti, context=CodecContext(backend))
    decoder.add_symbols(encoder.symbol_block(0, range(40, 48)))
    with pytest.raises(DecodeFailure, match="8 symbols for K=6"):
        decoder.decode()
    decoder.add_symbol(encoder.symbol(0, 48))
    assert decoder.decode() == payload


def test_a_context_that_never_encoded_builds_exactly_one_plan():
    k = 26
    context = CodecContext("planned")
    decoded = 0
    for _, esis, expected in _oracle_cases(k):
        if expected.success:
            assert _decode(context, k, esis).source_symbols == _source(k)
            decoded += 1
    assert decoded > 50
    assert context.stats.misses == 1
    assert context.decode_stats.misses == 1
    assert context.decode_stats.hits == decoded - 1
    assert context.blocks_encoded == 0 and context.blocks_decoded == decoded
