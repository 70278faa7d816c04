"""Tests for object segmentation and object-level encode/decode."""

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rq.block import (
    EncodedSymbol,
    ObjectDecoder,
    ObjectEncoder,
    partition_object,
)
from repro.rq.decoder import DecodeFailure
from repro.rq.params import MIN_SOURCE_SYMBOLS
from tests.conftest import decode_all, encode_all


class TestPartitioning:
    def test_small_object_single_block(self):
        oti = partition_object(10_000, 1000, 64)
        assert oti.num_source_blocks == 1
        assert oti.symbols_per_block == (10,)

    def test_minimum_symbol_count_enforced(self):
        oti = partition_object(100, 1000, 64)
        assert oti.total_source_symbols >= MIN_SOURCE_SYMBOLS

    def test_large_object_splits_into_blocks(self):
        oti = partition_object(1_000_000, 1000, 256)
        assert oti.num_source_blocks == 4
        assert sum(oti.symbols_per_block) == 1000

    def test_blocks_differ_by_at_most_one_symbol(self):
        oti = partition_object(999_000, 1000, 256)
        sizes = set(oti.symbols_per_block)
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            partition_object(0, 1000, 64)
        with pytest.raises(ValueError):
            partition_object(1000, 0, 64)
        with pytest.raises(ValueError):
            partition_object(1000, 100, 2)

    @given(
        transfer_length=st.integers(min_value=1, max_value=5_000_000),
        symbol_size=st.sampled_from([256, 512, 1024, 1408]),
        max_symbols=st.sampled_from([16, 64, 256]),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_covers_object(self, transfer_length, symbol_size, max_symbols):
        oti = partition_object(transfer_length, symbol_size, max_symbols)
        assert oti.total_source_symbols * symbol_size >= transfer_length
        assert all(count >= MIN_SOURCE_SYMBOLS for count in oti.symbols_per_block)
        assert all(count <= max_symbols + 1 for count in oti.symbols_per_block)


class TestObjectEncoderDecoder:
    def test_rejects_empty_object(self):
        with pytest.raises(ValueError):
            ObjectEncoder(b"")

    def test_source_symbols_cover_data(self):
        data = os.urandom(5_000)
        encoder = ObjectEncoder(data, symbol_size=512, max_symbols_per_block=16)
        joined = b"".join(symbol.data for symbol in encoder.source_symbols())
        assert joined[: len(data)] == data

    def test_block_out_of_range(self):
        encoder = ObjectEncoder(b"x" * 5000, symbol_size=512)
        with pytest.raises(IndexError):
            encoder.block(99)

    def test_roundtrip_source_only(self):
        data = os.urandom(20_000)
        encoder = ObjectEncoder(data, symbol_size=512, max_symbols_per_block=16)
        decoder = ObjectDecoder(encoder.oti)
        decoder.add_symbols(encoder.source_symbols())
        assert decoder.decode() == data

    def test_roundtrip_with_losses_and_repair(self):
        data = os.urandom(30_000)
        encoder = ObjectEncoder(data, symbol_size=512, max_symbols_per_block=16)
        decoder = ObjectDecoder(encoder.oti)
        rng = random.Random(5)
        for block in range(encoder.num_blocks):
            k = encoder.oti.block_symbol_count(block)
            kept = [esi for esi in range(k) if rng.random() > 0.25]
            for esi in kept:
                decoder.add_symbol(encoder.symbol(block, esi))
            for symbol in encoder.repair_symbols(block, k, k - len(kept) + 2):
                decoder.add_symbol(symbol)
        assert decoder.decode() == data

    def test_decode_fails_cleanly_when_starved(self):
        data = os.urandom(10_000)
        encoder = ObjectEncoder(data, symbol_size=512, max_symbols_per_block=16)
        decoder = ObjectDecoder(encoder.oti)
        decoder.add_symbol(encoder.symbol(0, 0))
        assert not decoder.can_attempt_decode()
        with pytest.raises(DecodeFailure):
            decoder.decode()

    def test_unknown_block_rejected(self):
        data = os.urandom(1_000)
        encoder = ObjectEncoder(data, symbol_size=256)
        decoder = ObjectDecoder(encoder.oti)
        with pytest.raises(ValueError):
            decoder.add_symbol(EncodedSymbol(block_number=7, esi=0, data=b"\x00" * 256))

    def test_is_source_for(self):
        symbol = EncodedSymbol(block_number=0, esi=3, data=b"")
        assert symbol.is_source_for(4)
        assert not symbol.is_source_for(3)

    def test_is_complete_tracks_block_decoders(self):
        data = os.urandom(4_000)
        encoder = ObjectEncoder(data, symbol_size=512, max_symbols_per_block=8)
        decoder = ObjectDecoder(encoder.oti)
        assert not decoder.is_complete()
        decoder.add_symbols(encoder.source_symbols())
        decoder.decode()
        assert decoder.is_complete()


class TestHighLevelApi:
    def test_encode_decode_roundtrip(self):
        data = os.urandom(12_345)
        oti, symbols = encode_all(data, symbol_size=512, max_symbols_per_block=32)
        assert decode_all(oti, symbols) == data

    def test_decode_with_dropped_sources_uses_repair(self):
        data = os.urandom(12_345)
        oti, symbols = encode_all(data, symbol_size=512, max_symbols_per_block=32,
                                  repairs_per_block=6)
        rng = random.Random(2)
        survivors = [s for s in symbols if s.esi >= oti.block_symbol_count(s.block_number)
                     or rng.random() > 0.15]
        assert decode_all(oti, survivors) == data

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.binary(min_size=1, max_size=8_000))
    def test_api_roundtrip_property(self, data):
        oti, symbols = encode_all(data, symbol_size=256, max_symbols_per_block=32)
        assert decode_all(oti, symbols) == data
