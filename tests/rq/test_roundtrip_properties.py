"""Property-based round-trips for the object-level RQ codec.

Hypothesis drives :class:`~repro.rq.block.ObjectEncoder` /
:class:`~repro.rq.block.ObjectDecoder` through randomly sized objects,
random loss patterns and random repair choices, asserting the decoded
bytes always equal the original -- or, for repair-only sets, that a typed
:class:`~repro.rq.decoder.DecodeFailure` is followed by success once more
symbols arrive (decodability of K + overhead symbols is probabilistic, not
an invariant; wrong bytes never are acceptable).  Example counts are kept small -- each
example runs a full Gaussian elimination -- but the generators cover the
boundaries (1-byte objects, exact multiples of the symbol size, the
splitting threshold into multiple blocks) that fixed-value tests miss.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.rq.block import (  # noqa: E402
    ObjectDecoder,
    ObjectEncoder,
    partition_object,
)
from repro.rq.decoder import DecodeFailure  # noqa: E402

#: Small symbols keep elimination cheap; MIN_SOURCE_SYMBOLS is 4 so even a
#: 1-byte object becomes a 4-symbol block.
SYMBOL_SIZE = 16
MAX_SYMBOLS_PER_BLOCK = 8  # force multi-block objects early

COMMON = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _object_bytes(draw, max_size=400):
    size = draw(st.integers(min_value=1, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    # A seeded byte pattern, cheaper for hypothesis to shrink than st.binary
    # of equivalent size and just as good at catching mixing bugs.
    return bytes((seed + i * 131) % 251 for i in range(size))


@settings(**COMMON)
@given(data=st.data())
def test_source_symbols_alone_round_trip(data):
    payload = _object_bytes(data.draw)
    encoder = ObjectEncoder(payload, symbol_size=SYMBOL_SIZE,
                            max_symbols_per_block=MAX_SYMBOLS_PER_BLOCK)
    decoder = ObjectDecoder(encoder.oti)
    for block in range(encoder.num_blocks):
        k = encoder.oti.block_symbol_count(block)
        decoder.add_symbols(encoder.symbol_block(block, range(k)))
    assert decoder.decode() == payload


@settings(**COMMON)
@given(data=st.data())
def test_round_trip_survives_random_source_loss(data):
    payload = _object_bytes(data.draw)
    encoder = ObjectEncoder(payload, symbol_size=SYMBOL_SIZE,
                            max_symbols_per_block=MAX_SYMBOLS_PER_BLOCK)
    decoder = ObjectDecoder(encoder.oti)
    overhead = 2
    for block in range(encoder.num_blocks):
        k = encoder.oti.block_symbol_count(block)
        lost = data.draw(
            st.sets(st.integers(min_value=0, max_value=k - 1), max_size=k),
            label=f"lost source ESIs of block {block}",
        )
        esis = [esi for esi in range(k) if esi not in lost]
        # Replace every loss with repair symbols, plus the RFC 6330 overhead
        # the protocol always collects when at least one source symbol died.
        if lost:
            esis += list(range(k, k + len(lost) + overhead))
        decoder.add_symbols(encoder.symbol_block(block, esis))
    assert decoder.decode() == payload


def test_rank_deficient_repair_window_fails_typed_then_decodes():
    """Regression for a window hypothesis used to draw a few percent of the
    time: for K=6, repair ESIs 40..47 (K + 2 symbols) are rank-deficient.
    The decoder must say so with a typed failure -- never return wrong bytes
    -- and decode exactly once one more symbol arrives, which is what the
    receiver's keep-pulling path relies on."""
    payload = bytes((7 + i * 131) % 251 for i in range(6 * SYMBOL_SIZE))
    encoder = ObjectEncoder(payload, symbol_size=SYMBOL_SIZE,
                            max_symbols_per_block=MAX_SYMBOLS_PER_BLOCK)
    assert encoder.num_blocks == 1 and encoder.oti.block_symbol_count(0) == 6
    decoder = ObjectDecoder(encoder.oti)
    decoder.add_symbols(encoder.symbol_block(0, range(40, 48)))
    with pytest.raises(DecodeFailure, match="8 symbols for K=6"):
        decoder.decode()
    decoder.add_symbols(encoder.symbol_block(0, [48]))
    assert decoder.decode() == payload


@settings(**COMMON)
@given(data=st.data())
def test_repair_only_round_trip(data):
    """No source symbol survives at all: K + overhead consecutive repair
    symbols reconstruct every block, or the decoder raises ``DecodeFailure``
    and reconstructs them after a few more -- never wrong bytes."""
    payload = _object_bytes(data.draw, max_size=120)
    encoder = ObjectEncoder(payload, symbol_size=SYMBOL_SIZE,
                            max_symbols_per_block=MAX_SYMBOLS_PER_BLOCK)
    decoder = ObjectDecoder(encoder.oti)
    overhead = 2
    next_esi = {}
    for block in range(encoder.num_blocks):
        k = encoder.oti.block_symbol_count(block)
        start = data.draw(st.integers(min_value=k, max_value=k + 50),
                          label=f"first repair ESI of block {block}")
        next_esi[block] = start + k + overhead
        decoder.add_symbols(encoder.symbol_block(block, range(start, next_esi[block])))
    extra_rounds = 8  # extra symbols a rank-deficient block may pull
    while True:
        try:
            decoded = decoder.decode()
            break
        except DecodeFailure:
            assert extra_rounds, "still rank-deficient after 8 more symbols per block"
            extra_rounds -= 1
            for block in range(encoder.num_blocks):
                if not decoder.block_decoder(block).is_decoded:
                    decoder.add_symbols(encoder.symbol_block(block, [next_esi[block]]))
                    next_esi[block] += 1
    assert decoded == payload


@settings(**COMMON)
@given(data=st.data())
def test_batched_and_single_symbol_encoding_agree(data):
    payload = _object_bytes(data.draw, max_size=200)
    encoder = ObjectEncoder(payload, symbol_size=SYMBOL_SIZE,
                            max_symbols_per_block=MAX_SYMBOLS_PER_BLOCK)
    block = data.draw(st.integers(min_value=0, max_value=encoder.num_blocks - 1))
    k = encoder.oti.block_symbol_count(block)
    esis = data.draw(
        st.lists(st.integers(min_value=0, max_value=k + 20),
                 min_size=1, max_size=10),
        label="esis",
    )
    batched = encoder.symbol_block(block, esis)
    singles = [encoder.symbol(block, esi) for esi in esis]
    assert batched == singles


@settings(max_examples=50, deadline=None)
@given(
    transfer_length=st.integers(min_value=1, max_value=10_000),
    symbol_size=st.sampled_from([1, 7, 16, 64, 1408]),
    max_symbols=st.integers(min_value=4, max_value=256),
)
def test_partition_covers_the_object_exactly(transfer_length, symbol_size, max_symbols):
    oti = partition_object(transfer_length, symbol_size, max_symbols)
    assert oti.num_source_blocks == len(oti.symbols_per_block)
    assert all(count >= 4 for count in oti.symbols_per_block)  # MIN_SOURCE_SYMBOLS
    # Symbols cover the payload (padding allowed, truncation never).
    assert oti.total_source_symbols * symbol_size >= transfer_length
    # Balanced split: block sizes differ by at most one symbol.
    assert max(oti.symbols_per_block) - min(oti.symbols_per_block) <= 1
