"""The codec's two solves, and the per-run :class:`CodecContext` that counts them.

The encoder and decoder do not run Gaussian elimination themselves; they
hand the two linear-algebra problems of the codec to their context:

* :meth:`CodecContext.repair_symbols`  -- encode side: the repair symbols a
  sender was asked for (source symbols are sent as they are and cost no
  coding work);
* :meth:`CodecContext.recover_sources` -- decode side: the source symbols
  that did not arrive, from whatever encoding symbols did.

Both read one object per K': the **generator basis** ``B = A^-1[:, S+H:]``
of the L x L constraint matrix ``A`` (S + H constraint rows, then the LT rows
of source ESIs 0..K-1).  Since the constraint right-hand sides are zero, the
intermediate symbols are ``C = B . source``.  A repair symbol ``e`` is
``lt_row(e) . C``, that is ``g_e . source`` with ``g_e = lt_row(e) . B`` --
an XOR of a few rows of ``B``, its *generator row*.

Encoding never forms ``C``: the r repair symbols a sender emits are the
r x K generator rows times the source plane, r . K . T work, on the
``bitplane`` kernel of :mod:`repro.rq.kernels`.  A block that is never asked
for a repair never looks the basis up.

Decoding stacks the received repairs' generator rows into ``G`` and splits
the source columns into the ``r`` missing and the known ones:

    ``G[:, missing] . x  =  repairs  XOR  G[:, known] . known_sources``

an r' x r system in the missing symbols ``x`` alone.  It has full column rank
exactly when the full system over all L intermediate symbols does
(``source -> C`` is a bijection and the received source rows pin their own
symbols), so it fails for the same ESI sets the full solve
(:meth:`CodecContext.decode_intermediate`) fails for.

:func:`generator_basis` builds each basis once per process and keeps it for
the life of the process; every context, session, simulation and pool worker
of that process shares it.  The seed search of :func:`repro.rq.params.for_k`
is that build (:func:`find_systematic_seed`): with the binary rows
eliminated over GF(2) first (:func:`repro.rq.solver.invert`), one K' costs
about 16 ms at K = 187 and 23 ms at K = 248 in a fresh process on a 2-core
Intel Xeon, matrix construction included (docs/ARCHITECTURE.md, "Cost
model", gives the command).  A
:class:`CodecContext` holds no basis, only one run's counters: blocks
encoded and decoded, and lookups of the basis -- the first lookup of a K' in
a context is a miss, later ones are hits -- so the counters are a function
of the run alone, whichever process it ran in and whatever ran there before.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.rq.kernels import get_kernel
from repro.rq.matrix import build_constraint_matrix
from repro.rq.params import CodeParameters
from repro.rq.plan import build_plan, constraint_matrix, received_matrix
from repro.rq.solver import SingularMatrixError, solve
from repro.rq.tuples import lt_neighbours
from repro.utils.stats import CacheStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.rq.encoder import BlockEncoder


@lru_cache(maxsize=None)
def generator_basis(params: CodeParameters) -> np.ndarray:
    """``B = A^-1[:, S+H:]`` for one K', built once per process (read-only)."""
    # ``build_plan`` is looked up in this module's globals on every call, so a
    # wrapper installed at ``repro.rq.backend.build_plan`` sees each build.
    plan = build_plan(constraint_matrix(params), record_steps=False)
    return plan.operator[:, params.num_ldpc_symbols + params.num_hdpc_symbols :]


def find_systematic_seed(params: CodeParameters, max_attempts: int = 64) -> int:
    """The smallest seed whose constraint matrix is invertible, its basis built.

    This replaces RFC 6330's tabulated systematic index J(K').  Because the
    HDPC rows are dense over GF(256), almost every seed works; the loop exists
    for the rare unlucky degree draw.  ``params`` with the returned seed equals
    what :func:`repro.rq.params.for_k` returns, so the basis built here is the
    one :func:`generator_basis` serves.
    """
    for seed in range(max_attempts):
        try:
            generator_basis(replace(params, systematic_seed=seed))
        except SingularMatrixError:
            continue
        return seed
    raise RuntimeError(
        f"no systematic seed found for K={params.num_source_symbols} "
        f"after {max_attempts} attempts"
    )


def _lt_encode(params: CodeParameters, esis: Sequence[int], plane: np.ndarray) -> np.ndarray:
    """LT-encode ``esis`` over an L-row plane: row i is the XOR of esi i's neighbours."""
    out = np.empty((len(esis), plane.shape[1]), dtype=np.uint8)
    for row, esi in enumerate(esis):
        indices = list(lt_neighbours(params, int(esi)))
        out[row] = np.bitwise_xor.reduce(plane[indices], axis=0)
    return out


class CodecContext:
    """One run's codec counters: blocks encoded/decoded and basis lookups.

    Create one per simulation (the experiment runner does) and hand it to
    every agent; the module-level :func:`default_context` serves library
    users who do not manage contexts.
    """

    def __init__(self) -> None:
        self.kernel = get_kernel()
        self.stats = CacheStats(name="rq_plan_cache")
        self.decode_stats = CacheStats(name="rq_decode_plan_cache")
        self._looked_up: set[CodeParameters] = set()
        self.blocks_encoded = 0
        self.blocks_decoded = 0

    def _basis(self, params: CodeParameters, decode: bool = False) -> np.ndarray:
        """The generator basis of ``params``, counting the lookup.

        ``decode=True`` additionally books it on the decode-side counters: a
        miss there means a block was decoded before any block of its K' had
        been encoded or decoded in this context.
        """
        hit = params in self._looked_up
        self._looked_up.add(params)
        for stats in (self.stats, self.decode_stats) if decode else (self.stats,):
            if hit:
                stats.record_hit()
            else:
                stats.record_miss()
        return generator_basis(params)

    def repair_symbols(self, encoder: "BlockEncoder", esis: Sequence[int]) -> np.ndarray:
        """The (len(esis) x T) plane of LT-encoded symbols of one block.

        Any ESI is allowed; for ``esi < K`` the result is the source symbol
        itself (the code is systematic), which is how the tests check it.
        """
        if encoder.generator_basis is None:
            encoder.generator_basis = self._basis(encoder.params)
        generator = _lt_encode(encoder.params, esis, encoder.generator_basis)
        return self.kernel.matmul(generator, encoder.source_plane)

    def recover_sources(
        self, params: CodeParameters, esis: Sequence[int], received: np.ndarray
    ) -> np.ndarray:
        """Decode one block: its missing source symbols, one row each, ascending.

        ``esis`` are the distinct received encoding-symbol ids in ascending
        order and ``received`` the matching (len(esis) x T) symbol plane.
        Raises :class:`~repro.rq.solver.SingularMatrixError` when the
        received symbols do not determine the block.
        """
        self.blocks_decoded += 1
        k = params.num_source_symbols
        ids = np.asarray(esis, dtype=np.intp)
        known, repairs = ids[ids < k], ids[ids >= k]
        present = np.zeros(k, dtype=bool)
        present[known] = True
        missing = np.flatnonzero(~present)
        generator = _lt_encode(params, repairs, self._basis(params, decode=True))
        # ``received`` holds the known sources, then the repairs: one operator
        # over that plane yields the missing sources.
        rhs = np.concatenate(
            [generator[:, known], np.eye(repairs.size, dtype=np.uint8)], axis=1
        )
        operator = solve(generator[:, missing], rhs)
        return self.kernel.matmul(operator, received)

    def encode_intermediate(self, params: CodeParameters, source: np.ndarray) -> np.ndarray:
        """The (L x T) intermediate plane of a (K x T) source plane: a full, uncached solve.

        Eliminates the L x L constraint matrix against ``[0; source]``.  The
        codec never does this; it is the oracle :meth:`repair_symbols` is
        tested against.
        """
        constraints = params.num_ldpc_symbols + params.num_hdpc_symbols
        rhs = np.zeros((params.num_intermediate_symbols, source.shape[1]), dtype=np.uint8)
        rhs[constraints:] = source
        return solve(build_constraint_matrix(params), rhs)

    def decode_intermediate(
        self, params: CodeParameters, esis: Sequence[int], received: np.ndarray
    ) -> np.ndarray:
        """The (L x T) intermediate plane from received symbols: a full, uncached solve.

        Stacks the LDPC/HDPC rows over one LT row per received ESI and
        eliminates all L unknowns.  The codec never does this; it is the
        oracle :meth:`recover_sources` is tested against.
        """
        constraints = params.num_ldpc_symbols + params.num_hdpc_symbols
        rhs = np.zeros((constraints + len(esis), received.shape[1]), dtype=np.uint8)
        rhs[constraints:] = received
        return solve(received_matrix(params, esis), rhs)

    def stats_dict(self) -> dict:
        """A JSON-friendly snapshot for experiment reports."""
        return {
            "blocks_encoded": self.blocks_encoded,
            "blocks_decoded": self.blocks_decoded,
            "plan_cache": self.stats.as_dict(),
            "decode_plan_cache": self.decode_stats.as_dict(),
        }


_default_context: Optional[CodecContext] = None


def default_context() -> CodecContext:
    """The process-wide context used when callers do not supply one."""
    global _default_context
    if _default_context is None:
        _default_context = CodecContext()
    return _default_context
