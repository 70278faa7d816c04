"""Block decoder: recover the source symbols from any sufficient symbol set.

The decoder accumulates received encoding symbols (source or repair, in any
order, from any number of senders).  Once at least K symbols are available it
attempts to decode.  The block is determined when the combined system

* S LDPC constraint rows          = 0
* H HDPC constraint rows          = 0
* one LT row per received symbol  = received symbol value

has full rank over the L intermediate symbols; decoding then yields the
source symbols that did not arrive.  Source symbols that were received
directly are returned as-is (no decoding cost), matching the "zero decoding
latency without loss" property the paper highlights.

The solve itself is delegated to the shared
:class:`~repro.rq.backend.CodecContext`: it goes through the one generator
basis built per K', so a block pays for a system the size of its loss, never
for a fresh elimination over all L intermediate symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.rq.params import CodeParameters, for_k
from repro.rq.solver import SingularMatrixError

if TYPE_CHECKING:  # pragma: no cover
    from repro.rq.backend import CodecContext


class DecodeFailure(RuntimeError):
    """Raised by :meth:`BlockDecoder.decode_or_raise` when decoding fails."""


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a decode attempt."""

    success: bool
    source_symbols: Optional[list[bytes]]
    symbols_received: int
    symbols_used: int
    overhead: int
    used_gaussian_elimination: bool

    @property
    def data(self) -> bytes:
        """Concatenated source symbols (only valid when :attr:`success`)."""
        if not self.success or self.source_symbols is None:
            raise DecodeFailure("decode did not succeed; no data available")
        return b"".join(self.source_symbols)


class BlockDecoder:
    """Decoder for a single source block."""

    def __init__(self, num_source_symbols: int, symbol_size: int,
                 params: CodeParameters | None = None,
                 context: Optional["CodecContext"] = None) -> None:
        if context is None:
            from repro.rq.backend import default_context

            context = default_context()
        self.context = context
        self.params = params if params is not None else for_k(num_source_symbols)
        if self.params.num_source_symbols != num_source_symbols:
            raise ValueError("params do not match num_source_symbols")
        if symbol_size <= 0:
            raise ValueError("symbol_size must be positive")
        self.symbol_size = symbol_size
        self._received: dict[int, bytes] = {}
        self._decoded: Optional[list[bytes]] = None

    @property
    def num_source_symbols(self) -> int:
        """K for this block."""
        return self.params.num_source_symbols

    @property
    def symbols_received(self) -> int:
        """Number of distinct encoding symbols received so far."""
        return len(self._received)

    @property
    def source_symbols_received(self) -> int:
        """How many of the received symbols are source symbols (ESI < K)."""
        return sum(1 for esi in self._received if esi < self.num_source_symbols)

    @property
    def is_decoded(self) -> bool:
        """Whether a previous decode attempt succeeded."""
        return self._decoded is not None

    def add_symbol(self, esi: int, data: bytes) -> bool:
        """Add one received encoding symbol.

        Returns True if the symbol was new (not a duplicate ESI).  Duplicate
        ESIs are ignored: they carry no new information.
        """
        if esi < 0:
            raise ValueError(f"ESI must be non-negative, got {esi}")
        if len(data) != self.symbol_size:
            raise ValueError(
                f"symbol has size {len(data)}, expected {self.symbol_size}"
            )
        if esi in self._received:
            return False
        self._received[esi] = data
        return True

    def can_attempt_decode(self) -> bool:
        """True once at least K distinct symbols are available."""
        return len(self._received) >= self.num_source_symbols

    def decode(self) -> DecodeResult:
        """Attempt to decode; never raises on failure (returns a result object)."""
        k = self.num_source_symbols
        received = len(self._received)

        if self._decoded is not None:
            return DecodeResult(
                success=True,
                source_symbols=self._decoded,
                symbols_received=received,
                symbols_used=received,
                overhead=received - k,
                used_gaussian_elimination=False,
            )

        # Fast path: every source symbol arrived directly; no coding work at all.
        if self.source_symbols_received == k:
            self._decoded = [self._received[esi] for esi in range(k)]
            return DecodeResult(
                success=True,
                source_symbols=self._decoded,
                symbols_received=received,
                symbols_used=k,
                overhead=received - k,
                used_gaussian_elimination=False,
            )

        if not self.can_attempt_decode():
            return DecodeResult(
                success=False,
                source_symbols=None,
                symbols_received=received,
                symbols_used=0,
                overhead=received - k,
                used_gaussian_elimination=False,
            )

        try:
            recovered = self._recover_missing()
        except SingularMatrixError:
            return DecodeResult(
                success=False,
                source_symbols=None,
                symbols_received=received,
                symbols_used=received,
                overhead=received - k,
                used_gaussian_elimination=True,
            )

        # Directly-received source symbols are reused; ``recovered`` holds
        # the others in ascending ESI order.
        rows = iter(recovered)
        source = [
            self._received[esi] if esi in self._received else next(rows).tobytes()
            for esi in range(k)
        ]
        self._decoded = source
        return DecodeResult(
            success=True,
            source_symbols=source,
            symbols_received=received,
            symbols_used=received,
            overhead=received - k,
            used_gaussian_elimination=True,
        )

    def decode_or_raise(self) -> list[bytes]:
        """Decode and return the source symbols, raising :class:`DecodeFailure` on failure."""
        result = self.decode()
        if not result.success or result.source_symbols is None:
            raise DecodeFailure(
                f"decoding failed with {result.symbols_received} symbols for K={self.num_source_symbols}"
            )
        return result.source_symbols

    def _recover_missing(self) -> np.ndarray:
        esis = sorted(self._received)
        received = np.empty((len(esis), self.symbol_size), dtype=np.uint8)
        for row, esi in enumerate(esis):
            received[row] = np.frombuffer(self._received[esi], dtype=np.uint8)
        return self.context.recover_sources(self.params, esis, received)
