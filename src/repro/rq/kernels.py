"""Pluggable GF(256) kernels: the byte-crunching layer under the codec.

Everything above this module decides *what* linear algebra to run (which
elimination plan, which symbol rows); this module decides *how* the bytes
are crunched.  A :class:`GFKernel` bundles the three operations the codec's
hot paths consume:

* ``matmul``     -- batched GF(256) matrix product, the workhorse of
  elimination-plan replay (``R . D`` over a whole symbol plane);
* ``matvec``     -- matrix-vector product (single-symbol paths, tests);
* ``scale_rows`` -- per-row scaling, the multiply half of a fused
  multiply-XOR row operation.

Two kernels register here:

* ``numpy``    -- the original table-lookup implementations from
  :mod:`repro.rq.gf256`, kept verbatim as the oracle the tests compare
  against;
* ``bitplane`` -- the default: a gather-free product that XOR-folds whole
  plane rows as ``uint64`` words, selected by the bits of the coefficient
  matrix (see :class:`BitplaneKernel`).

Selection is by name through :func:`get_kernel`: an explicit name wins,
otherwise the ``REPRO_GF_KERNEL`` environment variable, otherwise the
kernel with the highest :attr:`GFKernel.priority` (``bitplane``).  An
unknown *explicit* choice raises; an unknown *environment* choice warns and
falls back, so ambient configuration can never break a run.  Every kernel
produces byte-identical results (GF(256) arithmetic is exact), which
``tests/rq/test_kernels.py`` enforces against the ``numpy`` oracle.
"""

from __future__ import annotations

import os
import warnings
from abc import ABC, abstractmethod
from typing import ClassVar, Union

import numpy as np

from repro.rq.gf256 import MUL_TABLE, gf_matmul, gf_matvec, gf_scale_rows

#: Environment variable consulted when no kernel is named explicitly.
KERNEL_ENV_VAR = "REPRO_GF_KERNEL"

_KERNELS: dict[str, type["GFKernel"]] = {}
_INSTANCES: dict[str, "GFKernel"] = {}


def register_kernel(cls: type["GFKernel"]) -> type["GFKernel"]:
    """Class decorator: add a kernel to the registry under ``cls.name``."""
    if not getattr(cls, "name", None):
        raise ValueError(f"kernel {cls!r} must define a non-empty name")
    _KERNELS[cls.name] = cls
    return cls


def available_kernels() -> list[str]:
    """Names of every registered kernel, sorted."""
    return sorted(_KERNELS)


def best_kernel_name() -> str:
    """The highest-priority kernel (``bitplane`` > ``numpy``)."""
    return max(_KERNELS, key=lambda name: _KERNELS[name].priority)


def default_kernel_name() -> str:
    """Resolve the process default: ``REPRO_GF_KERNEL`` if usable, else the best.

    An environment choice that names no registered kernel warns and falls
    back to auto-selection rather than failing the run -- ambient
    configuration must never be load-bearing.
    """
    choice = os.environ.get(KERNEL_ENV_VAR, "").strip()
    if choice and choice.lower() != "auto":
        if choice in _KERNELS:
            return choice
        warnings.warn(
            f"{KERNEL_ENV_VAR}={choice!r} is not an available GF(256) kernel "
            f"(available: {', '.join(available_kernels())}); auto-selecting instead",
            RuntimeWarning,
            stacklevel=2,
        )
    return best_kernel_name()


def get_kernel(choice: Union[str, "GFKernel", None] = None) -> "GFKernel":
    """Resolve a kernel choice to a (shared) kernel instance.

    Args:
        choice: an already-built :class:`GFKernel` (returned as-is), a
            registered kernel name, ``"auto"``, or ``None``.  ``"auto"`` and
            ``None`` consult ``REPRO_GF_KERNEL`` and then auto-select.

    Raises:
        ValueError: for an explicit name that is not registered.
    """
    if isinstance(choice, GFKernel):
        return choice
    if choice is None or choice == "auto":
        choice = default_kernel_name()
    cls = _KERNELS.get(choice)
    if cls is None:
        raise ValueError(
            f"unknown GF(256) kernel {choice!r}; available: {', '.join(available_kernels())}"
        )
    instance = _INSTANCES.get(choice)
    if instance is None:
        instance = _INSTANCES[choice] = cls()
    return instance


class GFKernel(ABC):
    """Strategy interface for the codec's GF(256) byte work.

    Kernels are stateless and shared process-wide (:func:`get_kernel` caches
    one instance per name); they never cross process boundaries -- each
    worker of a sharded sweep resolves its own from the job's config.
    """

    name: ClassVar[str] = ""
    #: Auto-selection rank; the highest registered priority is the default.
    priority: ClassVar[int] = 0

    @abstractmethod
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """GF(256) matrix product ``(m, n) . (n, t) -> (m, t)`` (uint8)."""

    @abstractmethod
    def matvec(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """GF(256) matrix-vector product (uint8 in, uint8 out)."""

    @abstractmethod
    def scale_rows(self, rows: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Scale each row of ``rows`` by the matching entry of ``factors``."""


@register_kernel
class NumpyKernel(GFKernel):
    """The original :mod:`repro.rq.gf256` implementations -- the test oracle."""

    name = "numpy"
    priority = 0

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return gf_matmul(a, b)

    def matvec(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        return gf_matvec(matrix, vector)

    def scale_rows(self, rows: np.ndarray, factors: np.ndarray) -> np.ndarray:
        return gf_scale_rows(rows, factors)


#: ``_TIMES_TWO[v] == 2 * v`` in GF(256): one Horner step of the bit-plane fold.
_TIMES_TWO = MUL_TABLE[2]


@register_kernel
class BitplaneKernel(GFKernel):
    """Gather-free product: XOR whole plane rows, selected by coefficient bits.

    Split every coefficient into its bits, ``a[i, k] = XOR_j 2^j . a_j[i, k]``
    with ``a_j`` in {0, 1}.  Output row i is then ``XOR_j 2^j . S_j`` where
    ``S_j`` is the plain XOR of the plane rows ``b[k]`` whose coefficient has
    bit j set -- no multiplication, so the rows fold eight bytes at a time
    as ``uint64`` words (bytes when the row length is not a multiple of 8).
    The powers of two are applied Horner-style, highest bit first:
    ``acc = 2 . acc XOR S_j``, eight 256-entry table steps per output *row*
    where the table kernels pay one gather per row *and column*.  The work
    per output row does not depend on how many rows are asked for, so a
    one-row product (one repair symbol) and a full operator take one path.
    """

    name = "bitplane"
    priority = 10

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
