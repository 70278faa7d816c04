"""The GF(256) kernels: the byte-crunching layer under the codec.

Everything above this module decides *what* linear algebra to run (which
generator rows, which symbol planes); this module decides *how* the bytes
are crunched.  A kernel offers the three operations the codec consumes:

* ``matmul``     -- batched GF(256) matrix product (generator rows times a
  whole source plane);
* ``matvec``     -- matrix-vector product (single-symbol paths, tests);
* ``scale_rows`` -- per-row scaling, the multiply half of a fused
  multiply-XOR row operation.

Two kernels exist, looked up by name through :func:`get_kernel`:

* ``bitplane`` -- the one the codec runs on: a gather-free product that
  XOR-folds whole plane rows as ``uint64`` words, selected by the bits of the
  coefficient matrix (see :class:`BitplaneKernel`);
* ``numpy``    -- the table-lookup implementations from
  :mod:`repro.rq.gf256`, kept as the oracle the tests compare against.

GF(256) arithmetic is exact, so both produce byte-identical results, which
``tests/rq/test_kernels.py`` enforces.
"""

from __future__ import annotations

import numpy as np

from repro.rq.gf256 import MUL_TABLE, gf_matmul, gf_matvec, gf_scale_rows


class NumpyKernel:
    """The :mod:`repro.rq.gf256` table-lookup implementations -- the test oracle."""

    name = "numpy"

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return gf_matmul(a, b)

    def matvec(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        return gf_matvec(matrix, vector)

    def scale_rows(self, rows: np.ndarray, factors: np.ndarray) -> np.ndarray:
        return gf_scale_rows(rows, factors)


#: ``_TIMES_TWO[v] == 2 * v`` in GF(256): one Horner step of the bit-plane fold.
_TIMES_TWO = MUL_TABLE[2]


class BitplaneKernel:
    """Gather-free product: XOR whole plane rows, selected by coefficient bits.

    Split every coefficient into its bits, ``a[i, k] = XOR_j 2^j . a_j[i, k]``
    with ``a_j`` in {0, 1}.  Output row i is then ``XOR_j 2^j . S_j`` where
    ``S_j`` is the plain XOR of the plane rows ``b[k]`` whose coefficient has
    bit j set -- no multiplication, so the rows fold eight bytes at a time
    as ``uint64`` words (bytes when the row length is not a multiple of 8).
    The powers of two are applied Horner-style, highest bit first:
    ``acc = 2 . acc XOR S_j``, eight 256-entry table steps per output *row*
    where the table kernel pays one gather per row *and column*.  The work
    per output row does not depend on how many rows are asked for, so a
    one-row product (one repair symbol) and a full operator take one path.
    """

    name = "bitplane"

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("gf matmul needs two 2-D arrays")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} . {b.shape}")
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
        if out.size == 0 or a.shape[1] == 0:
            return out
        words = np.ascontiguousarray(b).view(np.uint64 if b.shape[1] % 8 == 0 else np.uint8)
        # (m, 8, n) booleans, most significant coefficient bit first.
        bits = np.unpackbits(np.ascontiguousarray(a)[:, None, :], axis=1).view(np.bool_)
        for out_row, row_bits in zip(out, bits):
            for selected in row_bits:
                out_row[:] = _TIMES_TWO[out_row]
                out_row ^= np.bitwise_xor.reduce(words[selected], axis=0).view(np.uint8)
        return out

    def matvec(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        if matrix.ndim != 2 or vector.ndim != 1:
            raise ValueError("gf matvec needs a 2-D matrix and a 1-D vector")
        return self.matmul(matrix, vector.reshape(-1, 1))[:, 0]

    def scale_rows(self, rows: np.ndarray, factors: np.ndarray) -> np.ndarray:
        return gf_scale_rows(rows, factors)


_KERNELS = {"bitplane": BitplaneKernel(), "numpy": NumpyKernel()}


def get_kernel(name: str = "bitplane"):
    """The shared kernel instance called ``name`` (``bitplane`` by default)."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown GF(256) kernel {name!r}; available: {', '.join(sorted(_KERNELS))}"
        ) from None
