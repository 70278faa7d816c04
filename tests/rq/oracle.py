"""The full-solve oracle the codec is tested against.

The codec never forms the L intermediate symbols of a block: it multiplies
generator rows of the cached per-K' basis into the source plane, and decodes
through a system the size of the loss.  The oracle does it the long way --
:meth:`~repro.rq.backend.CodecContext.encode_intermediate` /
:meth:`~repro.rq.backend.CodecContext.decode_intermediate` eliminate all L
unknowns, uncached, and the wanted symbols are LT-encoded from the result --
on the table-lookup arithmetic of :mod:`repro.rq.gf256`.  :func:`gaussian_rank`
is the plain GF(256) rank the codec's GF(2)-first inverse is checked against.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.rq.backend import CodecContext
from repro.rq.gf256 import MUL_TABLE, gf_inv
from repro.rq.params import CodeParameters, for_k
from repro.rq.solver import SingularMatrixError
from repro.rq.tuples import lt_neighbours

_CONTEXT = CodecContext()


def gaussian_rank(matrix: np.ndarray) -> int:
    """The rank of ``matrix`` over GF(256) by dense row reduction (input untouched)."""
    work = matrix.astype(np.uint8)
    rank = 0
    for col in range(work.shape[1]):
        candidates = np.flatnonzero(work[rank:, col])
        if not candidates.size:
            continue
        pivot = rank + int(candidates[0])
        work[[rank, pivot]] = work[[pivot, rank]]
        work[rank] = MUL_TABLE[gf_inv(int(work[rank, col]))][work[rank]]
        below = rank + 1 + np.flatnonzero(work[rank + 1 :, col])
        work[below] ^= MUL_TABLE[work[below, col]][:, work[rank]]
        rank += 1
        if rank == work.shape[0]:
            break
    return rank


def plane(symbols: Sequence[bytes]) -> np.ndarray:
    """Equal-sized symbols stacked into a (len x T) uint8 plane."""
    return np.frombuffer(b"".join(symbols), dtype=np.uint8).reshape(len(symbols), -1)


def lt_encode(params: CodeParameters, esis: Sequence[int], intermediate: np.ndarray) -> np.ndarray:
    """Row i: the XOR of the intermediate symbols ESI ``esis[i]`` is built from."""
    out = np.empty((len(esis), intermediate.shape[1]), dtype=np.uint8)
    for row, esi in enumerate(esis):
        out[row] = np.bitwise_xor.reduce(intermediate[list(lt_neighbours(params, int(esi)))], axis=0)
    return out


def intermediate(source: Sequence[bytes]) -> np.ndarray:
    """The (L x T) intermediate plane of one source block, by a full solve."""
    return _CONTEXT.encode_intermediate(for_k(len(source)), plane(source))


def encode(source: Sequence[bytes], esis: Sequence[int]) -> np.ndarray:
    """The encoding symbols ``esis`` of one source block, one row each."""
    return lt_encode(for_k(len(source)), esis, intermediate(source))


def decode(k: int, received: dict[int, bytes]) -> Optional[list[bytes]]:
    """The K source symbols from ``{esi: symbol}``; ``None`` when they do not
    determine the block."""
    params, esis = for_k(k), sorted(received)
    try:
        solved = _CONTEXT.decode_intermediate(params, esis, plane([received[e] for e in esis]))
    except SingularMatrixError:
        return None
    return [row.tobytes() for row in lt_encode(params, range(k), solved)]
