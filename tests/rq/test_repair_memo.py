"""One encoder shared by many sessions: remembered repairs, one plane per object.

A :class:`~repro.rq.encoder.BlockEncoder` keeps every repair symbol with
ESI in ``[K, 2K)`` once it has made it, so a server's stored object runs the
kernel for each of those at most once, whichever session asks.  The memo
must never change a byte: a shared, memoising encoder asked in any order
and in any batch shape returns what a fresh encoder and the full-solve
oracle return.  An :class:`~repro.rq.block.ObjectEncoder` reads its source
planes as views of the object's bytes; only a block that runs past the end
of the data is copied to append its zero padding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rq.backend import CodecContext
from repro.rq.block import EncodedSymbol, ObjectDecoder, ObjectEncoder
from repro.rq.encoder import BlockEncoder
from repro.rq.params import for_k
from tests.rq import oracle

SYMBOL_SIZE = 24
K_VALUES = (4, 10, 26)


def _source(k: int) -> list[bytes]:
    rng = np.random.default_rng(k)
    return [rng.integers(0, 256, SYMBOL_SIZE, dtype=np.uint8).tobytes() for _ in range(k)]


class _CountingContext(CodecContext):
    """A codec context that records every ESI the kernel is asked to encode."""

    def __init__(self) -> None:
        super().__init__()
        self.encoded: list[int] = []

    def repair_symbols(self, encoder, esis):
        self.encoded.extend(int(esi) for esi in esis)
        return super().repair_symbols(encoder, esis)


@pytest.mark.parametrize("k", K_VALUES)
def test_shared_encoder_matches_a_fresh_one_and_the_oracle(k):
    esis = list(range(k, 2 * k + 8))
    shared = BlockEncoder(_source(k), context=CodecContext())
    # Fill the memo out of order and in mixed batch shapes first.
    shared.symbol_block(esis[::-3])
    for esi in esis[::2]:
        shared.symbol(esi)
    expected = oracle.encode(_source(k), esis)
    for row, esi in enumerate(esis):
        fresh = BlockEncoder(_source(k), context=CodecContext()).symbol(esi)
        assert shared.symbol(esi) == fresh == expected[row].tobytes()
        assert shared.repair_symbol(esi) == fresh
    np.testing.assert_array_equal(shared.symbol_block(esis), expected)


@pytest.mark.parametrize("num_senders", [2, 3])
@pytest.mark.parametrize("k", K_VALUES)
def test_multi_source_strides_share_one_encoder(k, num_senders):
    """Sender i of N emits K + i, K + i + N, ...: every stride reads one
    encoder, twice over (a re-fetch), and gets the oracle's bytes."""
    shared = BlockEncoder(_source(k), context=CodecContext())
    for _ in range(2):
        for index in range(num_senders):
            stride = [k + index + num_senders * j for j in range(k)]
            expected = oracle.encode(_source(k), stride)
            got = [shared.symbol(esi) for esi in stride]
            assert got == [row.tobytes() for row in expected]
            np.testing.assert_array_equal(shared.symbol_block(stride), expected)


@pytest.mark.parametrize("k", K_VALUES)
def test_repairs_below_2k_are_made_once_and_the_memo_holds_at_most_k(k):
    context = _CountingContext()
    encoder = BlockEncoder(_source(k), context=context)
    for _ in range(3):
        encoder.symbol_block(list(range(3 * k)))
        for esi in range(k, 3 * k):
            encoder.symbol(esi)
        assert len(encoder._repairs) <= k
    made_low = [esi for esi in context.encoded if esi < 2 * k]
    assert sorted(made_low) == list(range(k, 2 * k))
    # ESIs of 2K and above come from the kernel on every request.
    assert all(context.encoded.count(esi) == 6 for esi in range(2 * k, 3 * k))
    assert set(encoder._repairs) == set(range(k, 2 * k))


def test_a_batch_with_repeated_repair_esis_encodes_each_once():
    k = 10
    context = _CountingContext()
    encoder = BlockEncoder(_source(k), context=context)
    plane = encoder.symbol_block([k + 3, 2, k + 3, 3 * k, 3 * k])
    assert context.encoded == [k + 3, 3 * k]
    expected = oracle.encode(_source(k), [k + 3, 2, k + 3, 3 * k, 3 * k])
    np.testing.assert_array_equal(plane, expected)


def _copied_planes(data: bytes, oti) -> list[list[bytes]]:
    """Each block's source symbols, sliced out of ``data`` and zero-padded."""
    size, blocks, first = oti.symbol_size, [], 0
    for count in oti.symbols_per_block:
        blocks.append([
            data[index * size:(index + 1) * size].ljust(size, b"\x00")
            for index in range(first, first + count)
        ])
        first += count
    return blocks


@pytest.mark.parametrize("length", [5 * 64 * 8 + 37, 100, 64 * 40])
def test_views_and_copies_encode_and_decode_identically(length):
    """A length that is not a multiple of T pads only the last block's
    copy; every whole block is a view of the object's bytes."""
    data = np.random.default_rng(length).integers(0, 256, length, dtype=np.uint8).tobytes()
    encoder = ObjectEncoder(data, symbol_size=64, max_symbols_per_block=8,
                            context=CodecContext())
    oti = encoder.oti
    raw = np.frombuffer(encoder.data, dtype=np.uint8)
    copies = _copied_planes(data, oti)
    decoder = ObjectDecoder(oti, context=CodecContext())
    for block, sources in enumerate(copies):
        view = encoder.block(block)
        whole = sum(oti.symbols_per_block[:block + 1]) * oti.symbol_size <= length
        assert np.shares_memory(view.source_plane, raw) == whole
        copy = BlockEncoder(sources, context=CodecContext())
        k = oti.block_symbol_count(block)
        # Lose the block's first two sources; repairs stand in for them.
        esis = list(range(2, k)) + list(range(k, k + 4))
        np.testing.assert_array_equal(view.symbol_block(esis), copy.symbol_block(esis))
        for esi in esis:
            decoder.add_symbol(EncodedSymbol(block, esi, view.symbol(esi)))
    assert decoder.decode() == data


def test_source_plane_view_is_read_only():
    encoder = ObjectEncoder(bytes(range(256)) * 8, symbol_size=64, max_symbols_per_block=8)
    plane = encoder.block(0).source_plane
    assert not plane.flags.writeable
    assert plane.shape == (for_k(8).num_source_symbols, 64)
