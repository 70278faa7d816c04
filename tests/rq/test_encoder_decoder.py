"""Tests for the block encoder and decoder (the heart of the codec)."""

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rq.backend import CodecContext
from repro.rq.decoder import BlockDecoder, DecodeFailure
from repro.rq.encoder import BlockEncoder
from repro.rq.params import for_k


def random_block(k: int, symbol_size: int, seed: int = 0) -> list[bytes]:
    rng = random.Random(seed)
    return [bytes(rng.getrandbits(8) for _ in range(symbol_size)) for _ in range(k)]


@pytest.fixture(scope="module")
def encoder_32() -> BlockEncoder:
    """A shared encoder for a 32-symbol block (expensive to build)."""
    return BlockEncoder(random_block(32, 48, seed=1))


class TestEncoderConstruction:
    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            BlockEncoder([])

    def test_rejects_unequal_symbol_sizes(self):
        with pytest.raises(ValueError):
            BlockEncoder([b"aaaa", b"bb"])

    def test_rejects_empty_symbols(self):
        with pytest.raises(ValueError):
            BlockEncoder([b"", b""])

    def test_rejects_mismatched_params(self):
        params = for_k(8)
        with pytest.raises(ValueError):
            BlockEncoder(random_block(16, 8), params=params)

    def test_num_source_symbols(self, encoder_32):
        assert encoder_32.num_source_symbols == 32


class TestSystematicProperty:
    def test_source_esis_reproduce_source_symbols(self, encoder_32):
        for esi in range(32):
            assert encoder_32.symbol(esi) == encoder_32.source_symbol(esi)

    def test_lt_encoding_of_source_esis_matches(self, encoder_32):
        # The defining systematic property: LT-encoding ISI i yields source symbol i.
        for esi in range(32):
            assert encoder_32.encoded_symbol_via_lt(esi) == encoder_32.source_symbol(esi)

    def test_source_symbol_out_of_range(self, encoder_32):
        with pytest.raises(IndexError):
            encoder_32.source_symbol(32)

    def test_repair_symbol_below_k_rejected(self, encoder_32):
        with pytest.raises(ValueError):
            encoder_32.repair_symbol(5)

    def test_repair_symbols_deterministic(self, encoder_32):
        assert encoder_32.repair_symbol(40) == encoder_32.repair_symbol(40)

    def test_repair_symbols_differ_from_each_other(self, encoder_32):
        symbols = {encoder_32.repair_symbol(esi) for esi in range(32, 64)}
        assert len(symbols) == 32


class TestDecoder:
    def test_all_source_symbols_fast_path(self, encoder_32):
        decoder = BlockDecoder(32, 48)
        for esi in range(32):
            decoder.add_symbol(esi, encoder_32.symbol(esi))
        result = decoder.decode()
        assert result.success
        assert not result.used_gaussian_elimination
        assert result.source_symbols == [encoder_32.source_symbol(i) for i in range(32)]

    def test_repair_only_decode(self, encoder_32):
        decoder = BlockDecoder(32, 48)
        for esi in range(32, 32 + 34):
            decoder.add_symbol(esi, encoder_32.symbol(esi))
        result = decoder.decode()
        assert result.success
        assert result.used_gaussian_elimination
        assert result.source_symbols == [encoder_32.source_symbol(i) for i in range(32)]

    def test_mixed_source_and_repair(self, encoder_32):
        decoder = BlockDecoder(32, 48)
        # Lose a quarter of the source symbols, compensate with repair + overhead.
        kept = [esi for esi in range(32) if esi % 4 != 0]
        for esi in kept:
            decoder.add_symbol(esi, encoder_32.symbol(esi))
        needed = 32 - len(kept) + 2
        for esi in range(100, 100 + needed):
            decoder.add_symbol(esi, encoder_32.symbol(esi))
        assert decoder.decode().success

    def test_insufficient_symbols_reported(self, encoder_32):
        decoder = BlockDecoder(32, 48)
        for esi in range(10):
            decoder.add_symbol(esi, encoder_32.symbol(esi))
        result = decoder.decode()
        assert not result.success
        assert not decoder.can_attempt_decode()

    def test_decode_or_raise_on_failure(self, encoder_32):
        decoder = BlockDecoder(32, 48)
        with pytest.raises(DecodeFailure):
            decoder.decode_or_raise()

    def test_duplicate_symbols_ignored(self, encoder_32):
        decoder = BlockDecoder(32, 48)
        assert decoder.add_symbol(0, encoder_32.symbol(0)) is True
        assert decoder.add_symbol(0, encoder_32.symbol(0)) is False
        assert decoder.symbols_received == 1

    def test_wrong_symbol_size_rejected(self):
        decoder = BlockDecoder(8, 16)
        with pytest.raises(ValueError):
            decoder.add_symbol(0, b"too-short")

    def test_negative_esi_rejected(self):
        decoder = BlockDecoder(8, 4)
        with pytest.raises(ValueError):
            decoder.add_symbol(-1, b"\x00" * 4)

    def test_a_decoded_block_is_not_solved_again(self, encoder_32):
        """Once a block decoded, later decode() calls return the same source
        symbols without another solve (the receiver decodes each block as it
        completes and only joins them at the end)."""
        context = CodecContext()
        decoder = BlockDecoder(32, 48, context=context)
        for esi in [*range(1, 32), 100, 101]:  # source ESI 0 withheld
            decoder.add_symbol(esi, encoder_32.symbol(esi))
        first = decoder.decode()
        assert first.success and first.used_gaussian_elimination
        again = decoder.decode()
        assert again.success and not again.used_gaussian_elimination
        assert again.source_symbols == first.source_symbols
        assert context.blocks_decoded == 1

    def test_decode_result_data_property(self, encoder_32):
        decoder = BlockDecoder(32, 48)
        for esi in range(32):
            decoder.add_symbol(esi, encoder_32.symbol(esi))
        result = decoder.decode()
        assert result.data == b"".join(encoder_32.source_symbol(i) for i in range(32))

    def test_overhead_bookkeeping(self, encoder_32):
        decoder = BlockDecoder(32, 48)
        for esi in range(35):
            decoder.add_symbol(esi if esi < 32 else esi + 100, encoder_32.symbol(esi if esi < 32 else esi + 100))
        result = decoder.decode()
        assert result.symbols_received == 35
        assert result.overhead == 3


class TestRoundtripProperties:
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        k=st.integers(min_value=4, max_value=24),
        symbol_size=st.integers(min_value=1, max_value=64),
        loss_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_decode_recovers_source_with_random_losses(self, k, symbol_size, loss_seed):
        """Any K+2 distinct symbols decode back to the original block."""
        source = random_block(k, symbol_size, seed=loss_seed)
        encoder = BlockEncoder(source)
        rng = random.Random(loss_seed)
        kept_sources = [esi for esi in range(k) if rng.random() > 0.3]
        decoder = BlockDecoder(k, symbol_size)
        for esi in kept_sources:
            decoder.add_symbol(esi, encoder.symbol(esi))
        repair_needed = k + 2 - len(kept_sources)
        start = k + rng.randint(0, 50)
        for esi in range(start, start + repair_needed):
            decoder.add_symbol(esi, encoder.symbol(esi))
        result = decoder.decode()
        assert result.success
        assert result.source_symbols == source

    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.binary(min_size=1, max_size=400))
    def test_arbitrary_bytes_roundtrip(self, data):
        """Encoding and decoding arbitrary (padded) content is lossless."""
        symbol_size = 16
        padded = data + b"\x00" * ((-len(data)) % symbol_size)
        symbols = [padded[i : i + symbol_size] for i in range(0, len(padded), symbol_size)]
        while len(symbols) < 4:
            symbols.append(b"\x00" * symbol_size)
        encoder = BlockEncoder(symbols)
        decoder = BlockDecoder(len(symbols), symbol_size)
        # Deliver everything as repair symbols only.
        for esi in range(len(symbols), 2 * len(symbols) + 2):
            decoder.add_symbol(esi, encoder.symbol(esi))
        assert decoder.decode().source_symbols == symbols


class TestDecodeFailureProbability:
    def test_exact_k_symbols_almost_always_decode(self):
        """With the dense HDPC rows, even zero-overhead decoding almost never fails."""
        k, symbol_size = 16, 8
        encoder = BlockEncoder(random_block(k, symbol_size, seed=3))
        failures = 0
        trials = 25
        rng = random.Random(9)
        for _ in range(trials):
            decoder = BlockDecoder(k, symbol_size)
            esis = rng.sample(range(150), k)
            for esi in esis:
                decoder.add_symbol(esi, encoder.symbol(esi))
            if not decoder.decode().success:
                failures += 1
        assert failures <= 2

    def test_k_plus_two_never_fails_in_sample(self):
        k, symbol_size = 16, 8
        encoder = BlockEncoder(random_block(k, symbol_size, seed=4))
        rng = random.Random(11)
        for _ in range(25):
            decoder = BlockDecoder(k, symbol_size)
            esis = rng.sample(range(200), k + 2)
            for esi in esis:
                decoder.add_symbol(esi, encoder.symbol(esi))
            assert decoder.decode().success
