"""Block encoder: systematic + rateless encoding-symbol generation.

A :class:`BlockEncoder` holds the K source symbols of one source block and
can generate *any* encoding symbol on demand:

* ESIs ``0 .. K-1`` are the source symbols themselves (systematic property):
  rows of the source plane, no coding work;
* ESIs ``K, K+1, ...`` are repair symbols, produced by the codec backend of
  the encoder's :class:`~repro.rq.backend.CodecContext`; there is no
  practical limit on how many can be produced (the code is rateless).

Construction does no linear algebra.  A sender of a systematic code ships
mostly source symbols, so coding work is paid per repair symbol actually
asked for: the default ``planned`` backend multiplies one generator row of
the cached per-K' operator into the source plane for each
(:meth:`~repro.rq.backend.CodecBackend.repair_symbols`), on the context's
pluggable GF(256) kernel (:mod:`repro.rq.kernels`).  The L intermediate
symbols of RFC 6330 are only ever formed by the ``reference`` oracle,
through the lazy :attr:`BlockEncoder.intermediate_plane`.  Every backend
and kernel emits byte-identical symbols.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.rq.params import CodeParameters, for_k

if TYPE_CHECKING:  # pragma: no cover
    from repro.rq.backend import CodecContext


class BlockEncoder:
    """Encoder for a single source block."""

    def __init__(
        self,
        source_symbols: Sequence[bytes],
        params: CodeParameters | None = None,
        context: Optional["CodecContext"] = None,
    ) -> None:
        if not source_symbols:
            raise ValueError("a source block needs at least one source symbol")
        symbol_size = len(source_symbols[0])
        if symbol_size == 0:
            raise ValueError("source symbols must be non-empty")
        if any(len(symbol) != symbol_size for symbol in source_symbols):
            raise ValueError("all source symbols must have the same size")

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
        self.symbol_size = symbol_size
        self._source = np.frombuffer(b"".join(source_symbols), dtype=np.uint8).reshape(
            len(source_symbols), symbol_size
        )
        #: Owned by the ``planned`` backend: the K-column slice of the per-K'
        #: operator whose rows XOR into generator rows, looked up once, on
        #: this block's first repair symbol.
        self.generator_basis: Optional[np.ndarray] = None
        self._intermediate: Optional[np.ndarray] = None
        self.context.blocks_encoded += 1

    @property
    def num_source_symbols(self) -> int:
        """K: number of source symbols in this block."""
        return self.params.num_source_symbols

    @property
    def source_plane(self) -> np.ndarray:
        """The (K x symbol_size) source symbol matrix (do not mutate)."""
        return self._source

    @property
    def intermediate_plane(self) -> np.ndarray:
        """The (L x symbol_size) intermediate symbol matrix (do not mutate).

        Solved for on first access and kept; only the ``reference`` backend
        (and tests) ever ask.
        """
        if self._intermediate is None:
            self._intermediate = self.context.encode_intermediate(self.params, self._source)
        return self._intermediate

    def source_symbol(self, esi: int) -> bytes:
        """Return source symbol ``esi`` (0 <= esi < K) directly."""
        if not 0 <= esi < self.num_source_symbols:
            raise IndexError(f"source symbol index {esi} out of range")
        return self._source[esi].tobytes()

    def repair_symbol(self, esi: int) -> bytes:
        """Return repair symbol ``esi`` (esi >= K)."""
        if esi < self.num_source_symbols:
            raise ValueError(f"repair symbols start at ESI {self.num_source_symbols}, got {esi}")
        return self.encoded_symbol_via_lt(esi)

    def symbol(self, esi: int) -> bytes:
        """Return the encoding symbol with the given ESI (source or repair).

        For source ESIs this returns the stored source symbol directly (no
        coding work), which mirrors what a Polyraptor sender does on the wire.
        """
        if esi < self.num_source_symbols:
            return self.source_symbol(esi)
        return self.encoded_symbol_via_lt(esi)

    def symbol_block(self, esis: Sequence[int]) -> np.ndarray:
        """Return the (len(esis) x symbol_size) plane of encoding symbols.

        Source ESIs are copied straight from the source plane; the repair
        ESIs among them are generated in one backend call.  Rows follow the
        caller's order.  This is the batched path used when a whole run of
        symbols is needed at once (initial window pushes, one-shot object
        encoding, tests).
        """
        ids = np.asarray(esis, dtype=np.intp)
        if (ids < 0).any():
            raise ValueError(f"ESI must be non-negative, got {int(ids.min())}")
        out = np.empty((ids.size, self.symbol_size), dtype=np.uint8)
        is_source = ids < self.num_source_symbols
        out[is_source] = self._source[ids[is_source]]
        if not is_source.all():
            out[~is_source] = self._lt_encode(ids[~is_source])
        return out

    def encoded_symbol_via_lt(self, esi: int) -> bytes:
        """Return the LT-encoded value for any ESI (including source ESIs).

        Used by tests to verify the systematic property: for ``esi < K`` this
        must equal :meth:`source_symbol`.
        """
        return self._lt_encode([esi])[0].tobytes()

    def _lt_encode(self, esis: Sequence[int]) -> np.ndarray:
        return self.context.backend.repair_symbols(self.context, self, esis)

    def lt_row_for(self, internal_symbol_id: int) -> np.ndarray:
        """Expose the GF(2) LT row of an ESI (used by the decoder and tests)."""
        from repro.rq.matrix import lt_row

        return lt_row(self.params, internal_symbol_id)
