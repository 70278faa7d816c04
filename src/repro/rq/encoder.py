"""Block encoder: systematic + rateless encoding-symbol generation.

A :class:`BlockEncoder` holds the K source symbols of one source block and
can generate *any* encoding symbol on demand:

* ESIs ``0 .. K-1`` are the source symbols themselves (systematic property):
  rows of the source plane, no coding work;
* ESIs ``K, K+1, ...`` are repair symbols, produced through the encoder's
  :class:`~repro.rq.backend.CodecContext`; there is no practical limit on
  how many can be produced (the code is rateless).

Construction does no linear algebra.  A sender of a systematic code ships
mostly source symbols, so coding work is paid per repair symbol actually
asked for: one generator row of the per-K' basis times the source plane
(:meth:`~repro.rq.backend.CodecContext.repair_symbols`), and a repair
with ESI below 2K is made at most once.  The L
intermediate symbols of RFC 6330 are never formed, except by the
full-solve oracle :meth:`~repro.rq.backend.CodecContext.encode_intermediate`
the tests compare against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.rq.params import CodeParameters, for_k

if TYPE_CHECKING:  # pragma: no cover
    from repro.rq.backend import CodecContext


class BlockEncoder:
    """Encoder for a single source block.

    ``source_symbols`` is K equal-sized byte strings or a (K x T) uint8
    plane the encoder never writes (a view of a stored object, say).  Repair
    symbols with ESI in ``[K, 2K)`` are remembered once made -- at most K,
    one more copy of the block -- and higher ones recomputed each time.  The
    memo is not thread-safe: share an encoder within one event loop only.
    """

    def __init__(
        self,
        source_symbols: Sequence[bytes] | np.ndarray,
        params: CodeParameters | None = None,
        context: Optional["CodecContext"] = None,
    ) -> None:
        if not isinstance(source_symbols, np.ndarray):
            if not source_symbols:
                raise ValueError("a source block needs at least one source symbol")
            size = len(source_symbols[0])
            if size == 0:
                raise ValueError("source symbols must be non-empty")
            if any(len(symbol) != size for symbol in source_symbols):
                raise ValueError("all source symbols must have the same size")
            source_symbols = np.frombuffer(b"".join(source_symbols), dtype=np.uint8).reshape(
                len(source_symbols), size
            )

        if context is None:
            from repro.rq.backend import default_context

            context = default_context()
        self.context = context
        self.params = params if params is not None else for_k(len(source_symbols))
        if self.params.num_source_symbols != len(source_symbols):
            raise ValueError(
                f"parameters are for K={self.params.num_source_symbols} but "
                f"{len(source_symbols)} source symbols were given"
            )
        self.symbol_size = source_symbols.shape[1]
        self._source = source_symbols
        #: repair ESI -> symbol, for ESIs in [K, 2K) already made
        self._repairs: dict[int, bytes] = {}
        #: Set by the context: the per-K' basis whose rows XOR into generator
        #: rows, looked up once, on this block's first repair symbol.
        self.generator_basis: Optional[np.ndarray] = None
        self.context.blocks_encoded += 1

    @property
    def num_source_symbols(self) -> int:
        """K: number of source symbols in this block."""
        return self.params.num_source_symbols

    @property
    def source_plane(self) -> np.ndarray:
        """The (K x symbol_size) source symbol matrix (do not mutate)."""
        return self._source

    def source_symbol(self, esi: int) -> bytes:
        """Return source symbol ``esi`` (0 <= esi < K) directly."""
        if not 0 <= esi < self.num_source_symbols:
            raise IndexError(f"source symbol index {esi} out of range")
        return self._source[esi].tobytes()

    def repair_symbol(self, esi: int) -> bytes:
        """Return repair symbol ``esi`` (esi >= K)."""
        if esi < self.num_source_symbols:
            raise ValueError(f"repair symbols start at ESI {self.num_source_symbols}, got {esi}")
        return self._repair_symbols([esi])[0]

    def symbol(self, esi: int) -> bytes:
        """Return the encoding symbol with the given ESI (source or repair).

        For source ESIs this returns the stored source symbol directly (no
        coding work), which mirrors what a Polyraptor sender does on the wire.
        """
        if esi < self.num_source_symbols:
            return self.source_symbol(esi)
        return self._repair_symbols([esi])[0]

    def symbol_block(self, esis: Sequence[int]) -> np.ndarray:
        """Return the (len(esis) x symbol_size) plane of encoding symbols.

        Source ESIs are copied straight from the source plane; the repair
        ESIs among them not yet remembered are generated in one context
        call.  Rows follow the caller's order.  This is the batched path
        used when a whole run of symbols is needed at once (initial window
        pushes, one-shot object encoding, tests).
        """
        ids = np.asarray(esis, dtype=np.intp)
        if (ids < 0).any():
            raise ValueError(f"ESI must be non-negative, got {int(ids.min())}")
        out = np.empty((ids.size, self.symbol_size), dtype=np.uint8)
        is_source = ids < self.num_source_symbols
        out[is_source] = self._source[ids[is_source]]
        if not is_source.all():
            repairs = b"".join(self._repair_symbols(ids[~is_source].tolist()))
            out[~is_source] = np.frombuffer(repairs, dtype=np.uint8).reshape(-1, self.symbol_size)
        return out

    def encoded_symbol_via_lt(self, esi: int) -> bytes:
        """Return the LT-encoded value for any ESI (including source ESIs).

        Used by tests to verify the systematic property: for ``esi < K`` this
        must equal :meth:`source_symbol`.  Always runs the kernel.
        """
        return self.context.repair_symbols(self, [esi])[0].tobytes()

    def _repair_symbols(self, esis: list[int]) -> list[bytes]:
        """Repair symbols ``esis`` (each >= K); those below 2K are made at most once."""
        fresh = [esi for esi in dict.fromkeys(esis) if esi not in self._repairs]
        made: dict[int, bytes] = {}
        if fresh:
            plane = self.context.repair_symbols(self, fresh)
            made = {esi: row.tobytes() for esi, row in zip(fresh, plane)}
            limit = 2 * self.num_source_symbols
            self._repairs.update((esi, data) for esi, data in made.items() if esi < limit)
        return [made[esi] if esi in made else self._repairs[esi] for esi in esis]
