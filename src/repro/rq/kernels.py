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

Three kernels register here:

* ``numpy``   -- the original table-lookup implementations from
  :mod:`repro.rq.gf256`, kept verbatim as ground truth;
* ``blocked`` -- a pure-numpy variant that reuses one scratch plane per
  product and streams the multiplication-table gathers through it in
  column tiles (``np.take(..., out=scratch)`` + in-place XOR), avoiding the
  per-column (rows x symbol_size) allocation the ``numpy`` kernel pays;
* ``numba``   -- nopython-JIT'd loops over the same tables; registered
  always, *available* only when :mod:`numba` imports.

Selection is by name through :func:`get_kernel`: an explicit name wins,
otherwise the ``REPRO_GF_KERNEL`` environment variable, otherwise the best
available kernel by :attr:`GFKernel.priority` (``numba`` when importable,
else ``blocked``).  An unavailable *explicit* choice raises; an unavailable
*environment* choice warns and falls back, so ambient configuration can
never break a run.  Every kernel produces byte-identical results (GF(256)
arithmetic is exact), which ``tests/rq/test_kernels.py`` enforces against
the ``numpy`` ground truth.
"""

from __future__ import annotations

import os
import warnings
from abc import ABC, abstractmethod
from typing import ClassVar, Optional, Union

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


def registered_kernels() -> list[str]:
    """Names of every registered kernel (available on this platform or not)."""
    return sorted(_KERNELS)


def available_kernels() -> list[str]:
    """Names of the kernels that can actually run here, sorted."""
    return sorted(name for name, cls in _KERNELS.items() if cls.is_available())


def best_kernel_name() -> str:
    """The highest-priority available kernel (``numba`` > ``blocked`` > ``numpy``)."""
    names = available_kernels()
    return max(names, key=lambda name: _KERNELS[name].priority)


def default_kernel_name() -> str:
    """Resolve the process default: ``REPRO_GF_KERNEL`` if usable, else the best.

    An environment choice that names an unavailable or unknown kernel warns
    and falls back to auto-selection rather than failing the run -- ambient
    configuration must never be load-bearing.
    """
    choice = os.environ.get(KERNEL_ENV_VAR, "").strip()
    if choice and choice.lower() != "auto":
        cls = _KERNELS.get(choice)
        if cls is not None and cls.is_available():
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
        ValueError: for an unknown name, or an explicit name whose kernel is
            not available on this platform (e.g. ``"numba"`` without numba).
    """
    if isinstance(choice, GFKernel):
        return choice
    if choice is None or choice == "auto":
        choice = default_kernel_name()
    cls = _KERNELS.get(choice)
    if cls is None:
        raise ValueError(
            f"unknown GF(256) kernel {choice!r}; registered: {', '.join(registered_kernels())}"
        )
    if not cls.is_available():
        raise ValueError(
            f"GF(256) kernel {choice!r} is registered but not available on this "
            f"platform (available: {', '.join(available_kernels())})"
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
    #: Auto-selection rank; higher wins among available kernels.
    priority: ClassVar[int] = 0

    @classmethod
    def is_available(cls) -> bool:
        """Whether this kernel can run on the current platform."""
        return True

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
    """The original :mod:`repro.rq.gf256` implementations -- ground truth."""

    name = "numpy"
    priority = 0

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return gf_matmul(a, b)

    def matvec(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        return gf_matvec(matrix, vector)

    def scale_rows(self, rows: np.ndarray, factors: np.ndarray) -> np.ndarray:
        return gf_scale_rows(rows, factors)


@register_kernel
class BlockedKernel(GFKernel):
    """Scratch-reusing, tiled pure-numpy matmul.

    The ``numpy`` kernel's inner loop allocates a fresh (m x t) gather result
    for every column of ``a`` (``products[:, value_row]``), which for a warm
    128-symbol block is ~130 allocations of ~200 KiB each per plan replay.
    This kernel allocates one scratch plane per product, fills it in place
    with ``np.take(..., out=...)`` tile by tile, and XOR-accumulates in
    place -- same table lookups, no per-column garbage, tiles bounded so the
    scratch stays cache-resident for very wide planes.
    """

    name = "blocked"
    priority = 10

    #: Symbol-plane columns processed per gather; bounds the scratch plane at
    #: (rows x 4096) bytes however wide the caller's plane is.
    tile_columns = 4096

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("gf matmul needs two 2-D arrays")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} . {b.shape}")
        m, t = a.shape[0], b.shape[1]
        out = np.zeros((m, t), dtype=np.uint8)
        if m == 0 or t == 0 or a.shape[1] == 0:
            return out
        tile = min(t, self.tile_columns)
        scratch = np.empty((m, tile), dtype=np.uint8)
        for k in range(a.shape[1]):
            column = a[:, k]
            if not column.any():
                continue
            value_row = b[k]
            if not value_row.any():
                continue
            products = MUL_TABLE[column]
            for start in range(0, t, tile):
                stop = min(start + tile, t)
                window = scratch[:, : stop - start]
                np.take(products, value_row[start:stop], axis=1, out=window)
                np.bitwise_xor(out[:, start:stop], window, out=out[:, start:stop])
        return out

    def matvec(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        if matrix.ndim != 2 or vector.ndim != 1:
            raise ValueError("gf matvec needs a 2-D matrix and a 1-D vector")
        return self.matmul(matrix, vector.reshape(-1, 1))[:, 0]

    def scale_rows(self, rows: np.ndarray, factors: np.ndarray) -> np.ndarray:
        return gf_scale_rows(rows, factors)


# Numba kernel -----------------------------------------------------------------------
#
# The jitted loops close over the shared multiplication table; they are
# compiled once per process, lazily, the first time the kernel runs.  The
# class is *registered* unconditionally (so names/validation stay uniform)
# but *available* only when numba imports.

_NUMBA_FUNCS: Optional[dict] = None
_NUMBA_OK: Optional[bool] = None


def _numba_importable() -> bool:
    global _NUMBA_OK
    if _NUMBA_OK is None:
        try:
            import numba  # noqa: F401

            _NUMBA_OK = True
        except Exception:  # pragma: no cover - exercised only without numba
            _NUMBA_OK = False
    return _NUMBA_OK


def _numba_funcs() -> dict:
    """Compile (once) and return the jitted matmul/matvec/scale_rows."""
    global _NUMBA_FUNCS
    if _NUMBA_FUNCS is not None:
        return _NUMBA_FUNCS
    import numba

    @numba.njit(cache=False, nogil=True)
    def matmul(a, b, mul_table):  # pragma: no cover - requires numba
        m, n = a.shape
        t = b.shape[1]
        out = np.zeros((m, t), dtype=np.uint8)
        for i in range(m):
            accumulator = out[i]
            for k in range(n):
                coefficient = a[i, k]
                if coefficient == 0:
                    continue
                lut = mul_table[coefficient]
                row = b[k]
                for j in range(t):
                    accumulator[j] ^= lut[row[j]]
        return out

    @numba.njit(cache=False, nogil=True)
    def matvec(matrix, vector, mul_table):  # pragma: no cover - requires numba
        m, n = matrix.shape
        out = np.zeros(m, dtype=np.uint8)
        for i in range(m):
            accumulator = np.uint8(0)
            for k in range(n):
                coefficient = matrix[i, k]
                if coefficient != 0:
                    accumulator ^= mul_table[coefficient, vector[k]]
            out[i] = accumulator
        return out

    @numba.njit(cache=False, nogil=True)
    def scale_rows(rows, factors, mul_table):  # pragma: no cover - requires numba
        n, m = rows.shape
        out = np.zeros((n, m), dtype=np.uint8)
        for i in range(n):
            factor = factors[i]
            if factor == 0:
                continue
            lut = mul_table[factor]
            for j in range(m):
                out[i, j] = lut[rows[i, j]]
        return out

    _NUMBA_FUNCS = {"matmul": matmul, "matvec": matvec, "scale_rows": scale_rows}
    return _NUMBA_FUNCS


@register_kernel
class NumbaKernel(GFKernel):
    """Nopython-JIT'd table-lookup loops (requires :mod:`numba`).

    The loops fuse the gather and the XOR-accumulate cell by cell, so there
    are no intermediate planes at all; with numba installed this is the
    fastest kernel by a wide margin and auto-selection prefers it.
    """

    name = "numba"
    priority = 20

    @classmethod
    def is_available(cls) -> bool:
        return _numba_importable()

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("gf matmul needs two 2-D arrays")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} . {b.shape}")
        funcs = _numba_funcs()
        return funcs["matmul"](
            np.ascontiguousarray(a), np.ascontiguousarray(b), MUL_TABLE
        )

    def matvec(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        if matrix.ndim != 2 or vector.ndim != 1:
            raise ValueError("gf matvec needs a 2-D matrix and a 1-D vector")
        funcs = _numba_funcs()
        return funcs["matvec"](
            np.ascontiguousarray(matrix), np.ascontiguousarray(vector), MUL_TABLE
        )

    def scale_rows(self, rows: np.ndarray, factors: np.ndarray) -> np.ndarray:
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D array")
        funcs = _numba_funcs()
        return funcs["scale_rows"](
            np.ascontiguousarray(rows), np.ascontiguousarray(factors), MUL_TABLE
        )
