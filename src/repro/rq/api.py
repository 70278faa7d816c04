"""Convenience one-shot helpers on top of the object encoder/decoder.

These are what the examples and most tests use; the transport protocol uses
the lower-level :class:`~repro.rq.block.ObjectEncoder` /
:class:`~repro.rq.block.ObjectDecoder` directly so that it can generate repair
symbols on demand.

Both helpers accept an optional :class:`~repro.rq.backend.CodecContext`:
pass one to count the blocks and basis lookups of these objects on their
own; without one, the process-wide default context is used.  See
``docs/ARCHITECTURE.md`` for how contexts and the per-K' basis fit together.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.rq.block import (
    DEFAULT_MAX_SYMBOLS_PER_BLOCK,
    DEFAULT_SYMBOL_SIZE,
    EncodedSymbol,
    ObjectDecoder,
    ObjectEncoder,
    ObjectTransmissionInfo,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.rq.backend import CodecContext


def encode_object(
    data: bytes,
    symbol_size: int = DEFAULT_SYMBOL_SIZE,
    repair_symbols_per_block: int = 0,
    max_symbols_per_block: int = DEFAULT_MAX_SYMBOLS_PER_BLOCK,
    context: Optional["CodecContext"] = None,
) -> tuple[ObjectTransmissionInfo, list[EncodedSymbol]]:
    """Encode ``data`` and return its OTI plus a list of encoding symbols.

    The returned list contains every source symbol followed by
    ``repair_symbols_per_block`` repair symbols per block.  Each block is
    produced with one batched symbol-plane pass.

    Args:
        data: the object bytes (must be non-empty).
        symbol_size: bytes per encoding symbol (default fits one MTU).
        repair_symbols_per_block: extra rateless symbols appended per block.
        max_symbols_per_block: cap on source symbols per block; larger
            objects are split into several blocks.
        context: optional codec context (block and lookup counters).

    Returns:
        ``(oti, symbols)`` -- the transmission info the decoder needs, and
        the encoding symbols in (block-major, source-then-repair) order.
    """
    encoder = ObjectEncoder(data, symbol_size=symbol_size,
                            max_symbols_per_block=max_symbols_per_block,
                            context=context)
    symbols: list[EncodedSymbol] = []
    for block_number in range(encoder.num_blocks):
        k = encoder.oti.block_symbol_count(block_number)
        symbols.extend(encoder.symbol_block(block_number, list(range(k))))
    for block_number in range(encoder.num_blocks):
        k = encoder.oti.block_symbol_count(block_number)
        repair_esis = list(range(k, k + repair_symbols_per_block))
        symbols.extend(encoder.symbol_block(block_number, repair_esis))
    return encoder.oti, symbols


def decode_object(oti: ObjectTransmissionInfo, symbols: Iterable[EncodedSymbol],
                  context: Optional["CodecContext"] = None) -> bytes:
    """Decode an object from its OTI and any sufficient set of encoding symbols.

    Args:
        oti: the transmission info produced by :func:`encode_object`.
        symbols: received encoding symbols, in any order, from any senders;
            each block needs at least K (plus the usual small overhead when
            source symbols were lost).
        context: optional codec context (block and lookup counters).

    Raises:
        repro.rq.decoder.DecodeFailure: if some block cannot be decoded yet.
    """
    decoder = ObjectDecoder(oti, context=context)
    decoder.add_symbols(symbols)
    return decoder.decode()
