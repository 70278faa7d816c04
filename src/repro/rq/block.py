"""Object-level segmentation: split an object into source blocks.

Large objects are split into ``Z`` source blocks, each with at most
``max_symbols_per_block`` source symbols of ``symbol_size`` bytes (the last
symbol of the last block is zero-padded; the original length is carried in
the :class:`ObjectTransmissionInfo` so the decoder can strip the padding).

The split mirrors RFC 6330's source-block partitioning: block sizes differ by
at most one symbol, so load is spread evenly — which also matters for the
multi-source transport where different senders may serve different blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.rq.decoder import BlockDecoder, DecodeFailure
from repro.rq.encoder import BlockEncoder
from repro.rq.params import MAX_SOURCE_SYMBOLS, MIN_SOURCE_SYMBOLS

if TYPE_CHECKING:  # pragma: no cover
    from repro.rq.backend import CodecContext

#: Default symbol size: fits (with headers) in a 1500-byte data-centre MTU.
DEFAULT_SYMBOL_SIZE = 1408

#: Default cap on source symbols per block; keeps the Gaussian elimination fast.
DEFAULT_MAX_SYMBOLS_PER_BLOCK = 256


@dataclass(frozen=True)
class ObjectTransmissionInfo:
    """Everything a receiver needs to know to decode an object (RFC 6330's OTI)."""

    transfer_length: int
    symbol_size: int
    num_source_blocks: int
    symbols_per_block: tuple[int, ...]

    @property
    def total_source_symbols(self) -> int:
        """Total number of source symbols across all blocks."""
        return sum(self.symbols_per_block)

    def block_symbol_count(self, block_number: int) -> int:
        """Number of source symbols in the given block."""
        return self.symbols_per_block[block_number]


@dataclass(frozen=True)
class EncodedSymbol:
    """One encoding symbol on the wire: block number, ESI and payload."""

    block_number: int
    esi: int
    data: bytes

    def is_source_for(self, num_source_symbols: int) -> bool:
        """True if this symbol is a source symbol of a block with the given K."""
        return self.esi < num_source_symbols


def partition_object(transfer_length: int, symbol_size: int,
                     max_symbols_per_block: int) -> ObjectTransmissionInfo:
    """Compute the block structure for an object of ``transfer_length`` bytes."""
    if transfer_length <= 0:
        raise ValueError("transfer_length must be positive")
    if symbol_size <= 0:
        raise ValueError("symbol_size must be positive")
    if not MIN_SOURCE_SYMBOLS <= max_symbols_per_block <= MAX_SOURCE_SYMBOLS:
        raise ValueError(
            f"max_symbols_per_block must be in [{MIN_SOURCE_SYMBOLS}, {MAX_SOURCE_SYMBOLS}]"
        )
    total_symbols = max(MIN_SOURCE_SYMBOLS, math.ceil(transfer_length / symbol_size))
    # Splitting must never create a block smaller than the codec's minimum, so
    # the block count is capped by how many MIN_SOURCE_SYMBOLS-sized blocks fit
    # (respecting the minimum takes precedence over the soft per-block cap).
    max_blocks_by_minimum = max(1, total_symbols // MIN_SOURCE_SYMBOLS)
    num_blocks = min(math.ceil(total_symbols / max_symbols_per_block), max_blocks_by_minimum)
    base = total_symbols // num_blocks
    remainder = total_symbols % num_blocks
    symbols_per_block = tuple(
        base + 1 if block < remainder else base for block in range(num_blocks)
    )
    return ObjectTransmissionInfo(
        transfer_length=transfer_length,
        symbol_size=symbol_size,
        num_source_blocks=num_blocks,
        symbols_per_block=symbols_per_block,
    )


class ObjectEncoder:
    """Encode a whole object: block partitioning + per-block systematic encoders.

    Block planes are views of the object's bytes, so many sessions can share one.
    """

    def __init__(
        self,
        data: bytes,
        symbol_size: int = DEFAULT_SYMBOL_SIZE,
        max_symbols_per_block: int = DEFAULT_MAX_SYMBOLS_PER_BLOCK,
        context: Optional["CodecContext"] = None,
    ) -> None:
        if not data:
            raise ValueError("cannot encode an empty object")
        self.data = bytes(data)
        self.context = context
        self.oti = partition_object(len(data), symbol_size, max_symbols_per_block)
        self._encoders: dict[int, BlockEncoder] = {}

    @property
    def num_blocks(self) -> int:
        """Number of source blocks the object was split into."""
        return self.oti.num_source_blocks

    def _block_plane(self, block_number: int) -> np.ndarray:
        """One block's (K x T) source plane: a view of :attr:`data`, or a
        zero-padded copy for the block that runs past its end."""
        symbol_size = self.oti.symbol_size
        count = self.oti.symbols_per_block[block_number]
        start = sum(self.oti.symbols_per_block[:block_number]) * symbol_size
        end = start + count * symbol_size
        if end <= len(self.data):
            return np.frombuffer(self.data, dtype=np.uint8, count=end - start,
                                 offset=start).reshape(count, symbol_size)
        tail = self.data[start:end]
        return np.frombuffer(tail + bytes(end - start - len(tail)), dtype=np.uint8).reshape(
            count, symbol_size)

    def block(self, block_number: int) -> BlockEncoder:
        """Return (and cache) the encoder for one source block."""
        if not 0 <= block_number < self.num_blocks:
            raise IndexError(f"block {block_number} out of range")
        if block_number not in self._encoders:
            self._encoders[block_number] = BlockEncoder(
                self._block_plane(block_number), context=self.context
            )
        return self._encoders[block_number]

    def symbol(self, block_number: int, esi: int) -> EncodedSymbol:
        """Generate one encoding symbol for the given block."""
        data = self.block(block_number).symbol(esi)
        return EncodedSymbol(block_number=block_number, esi=esi, data=data)

    def symbol_block(self, block_number: int, esis: Sequence[int]) -> list[EncodedSymbol]:
        """Generate a batch of encoding symbols for one block in the symbol plane."""
        plane = self.block(block_number).symbol_block(esis)
        return [
            EncodedSymbol(block_number=block_number, esi=esi, data=plane[row].tobytes())
            for row, esi in enumerate(esis)
        ]

    def source_symbols(self) -> Iterator[EncodedSymbol]:
        """Yield every source symbol of every block, in order."""
        for block_number in range(self.num_blocks):
            for esi in range(self.oti.block_symbol_count(block_number)):
                yield self.symbol(block_number, esi)

    def repair_symbols(self, block_number: int, start_esi: int, count: int) -> Iterator[EncodedSymbol]:
        """Yield ``count`` repair symbols for one block starting at ``start_esi``."""
        k = self.oti.block_symbol_count(block_number)
        esi = max(start_esi, k)
        for _ in range(count):
            yield self.symbol(block_number, esi)
            esi += 1


class ObjectDecoder:
    """Decode a whole object from encoding symbols of any of its blocks."""

    def __init__(self, oti: ObjectTransmissionInfo,
                 context: Optional["CodecContext"] = None) -> None:
        self.oti = oti
        self.context = context
        self._decoders = {
            block: BlockDecoder(oti.block_symbol_count(block), oti.symbol_size,
                                context=context)
            for block in range(oti.num_source_blocks)
        }

    def add_symbol(self, symbol: EncodedSymbol) -> bool:
        """Feed one received encoding symbol to the right block decoder."""
        if symbol.block_number not in self._decoders:
            raise ValueError(f"unknown block number {symbol.block_number}")
        return self._decoders[symbol.block_number].add_symbol(symbol.esi, symbol.data)

    def add_symbols(self, symbols: Iterable[EncodedSymbol]) -> int:
        """Feed many symbols; returns how many were new."""
        return sum(1 for symbol in symbols if self.add_symbol(symbol))

    def block_decoder(self, block_number: int) -> BlockDecoder:
        """Access the underlying per-block decoder (for inspection/tests)."""
        return self._decoders[block_number]

    def is_complete(self) -> bool:
        """True when every block has enough symbols to have decoded successfully."""
        return all(decoder.is_decoded for decoder in self._decoders.values())

    def can_attempt_decode(self) -> bool:
        """True when every block has at least K symbols."""
        return all(decoder.can_attempt_decode() for decoder in self._decoders.values())

    def decode(self) -> bytes:
        """Decode all blocks and return the original object bytes.

        Every block is attempted before anything is raised, so after a
        failure :meth:`is_decoded` of each block decoder tells exactly which
        blocks still need symbols.

        Raises:
            DecodeFailure: if any block cannot be decoded yet.
        """
        pieces: list[bytes] = []
        failures: list[str] = []
        for block_number in range(self.oti.num_source_blocks):
            try:
                pieces.extend(self._decoders[block_number].decode_or_raise())
            except DecodeFailure as error:
                failures.append(f"block {block_number}: {error}")
        if failures:
            raise DecodeFailure("; ".join(failures))
        data = b"".join(pieces)
        return data[: self.oti.transfer_length]
