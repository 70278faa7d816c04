"""Pluggable codec backends and the shared :class:`CodecContext`.

The encoder and decoder do not run Gaussian elimination themselves; they
delegate the two linear-algebra problems of the codec to a backend:

* ``repair_symbols``  -- encode side: the repair symbols a sender was asked
  for (source symbols are sent as they are and cost no coding work);
* ``recover_sources`` -- decode side: the source symbols that did not
  arrive, from whatever encoding symbols did.

Two backends ship:

* ``reference`` -- caches nothing: rebuilds the matrix and re-runs full
  elimination for every block.  It solves ``A . C = [0; source]`` for all L
  intermediate symbols (once per encoder; from the received symbols when
  decoding) and LT-encodes the wanted symbols from them.  Kept as the oracle
  the tests compare against;
* ``planned``   -- the default: keeps one :class:`~repro.rq.plan.EliminationPlan`
  per K' (the inverse of the constraint matrix A) in the context's shared
  plan cache and never forms the intermediate symbols.  Both directions read
  the few rows of it that express the repair symbols in hand as combinations
  of the source symbols: encoding multiplies them into the source plane, one
  row per repair symbol actually sent; decoding solves a system only as
  large as the loss (see :class:`PlannedBackend`).

A :class:`CodecContext` bundles one backend with one
:mod:`~repro.rq.kernels` GF(256) kernel, one plan cache and its hit/miss
counters (overall, plus the decode side's lookups on their own).  All
sessions of a simulation share a single context, so the first block with a
given K' that emits a repair symbol or is decoded pays for elimination and
every later block, encoded or decoded, under any loss pattern, rides the
cache.

Because plans are immutable they can also cross process boundaries: a
context can export its cache as a picklable :class:`~repro.rq.plan.PlanStore`
(:meth:`CodecContext.snapshot_plans`) and a fresh context can be seeded from
one (the ``preload`` constructor argument).  :func:`prewarm_encode_plans`
builds a store ahead of time; the parallel experiment executor
(:mod:`repro.experiments.parallel`) uses it so every worker process starts
with a warm cache.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, Iterable, Optional, Sequence, Union

import numpy as np

from repro.rq.kernels import GFKernel, get_kernel
from repro.rq.matrix import build_constraint_matrix
from repro.rq.params import CodeParameters, for_k
from repro.rq.plan import (
    EliminationPlan,
    PlanCache,
    PlanStore,
    build_plan,
    constraint_matrix,
    received_matrix,
)
from repro.rq.solver import solve
from repro.rq.tuples import lt_neighbours
from repro.sim.stats import CacheStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.rq.encoder import BlockEncoder

#: Name of the backend used when none is configured explicitly.
DEFAULT_BACKEND = "planned"

_BACKENDS: dict[str, type["CodecBackend"]] = {}


def register_backend(cls: type["CodecBackend"]) -> type["CodecBackend"]:
    """Class decorator: add a backend to the registry under ``cls.name``."""
    if not getattr(cls, "name", None):
        raise ValueError(f"backend {cls!r} must define a non-empty name")
    _BACKENDS[cls.name] = cls
    return cls


def available_backends() -> list[str]:
    """Names of every registered backend, sorted."""
    return sorted(_BACKENDS)


def create_backend(name: str) -> "CodecBackend":
    """Instantiate a registered backend by name."""
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown codec backend {name!r}; available: {', '.join(available_backends())}"
        ) from None


class CodecBackend(ABC):
    """Strategy interface for the codec's two solve problems."""

    name: ClassVar[str] = ""

    @abstractmethod
    def repair_symbols(
        self, context: "CodecContext", encoder: "BlockEncoder", esis: Sequence[int]
    ) -> np.ndarray:
        """Return the (len(esis) x T) plane of LT-encoded symbols of one block.

        Any ESI is allowed; for ``esi < K`` the result is the source symbol
        itself (the code is systematic), which is how the tests check it.
        """

    @abstractmethod
    def recover_sources(
        self,
        context: "CodecContext",
        params: CodeParameters,
        esis: tuple[int, ...],
        received: np.ndarray,
    ) -> np.ndarray:
        """Return the missing source symbols, one row each, in ascending ESI order.

        ``esis`` are the distinct received encoding-symbol ids in ascending
        order and ``received`` the matching (len(esis) x T) symbol plane.
        Raises :class:`~repro.rq.solver.SingularMatrixError` when the
        received symbols do not determine the block.
        """


def _split_esis(params: CodeParameters, esis: Sequence[int]) -> tuple[np.ndarray, ...]:
    """``(known, missing, repairs)``: received source, lost source and repair ESIs."""
    k = params.num_source_symbols
    ids = np.asarray(esis, dtype=np.intp)
    known = ids[ids < k]
    return known, np.setdiff1d(np.arange(k), known), ids[ids >= k]


def _lt_encode(params: CodeParameters, esis: Sequence[int], plane: np.ndarray) -> np.ndarray:
    """LT-encode ``esis`` over an L-row plane: row i is the XOR of esi i's neighbours."""
    out = np.empty((len(esis), plane.shape[1]), dtype=np.uint8)
    for row, esi in enumerate(esis):
        indices = list(lt_neighbours(params, int(esi)))
        out[row] = np.bitwise_xor.reduce(plane[indices], axis=0)
    return out


@register_backend
class ReferenceBackend(CodecBackend):
    """The original per-block elimination path, kept as ground truth."""

    name = "reference"

    def repair_symbols(
        self, context: "CodecContext", encoder: "BlockEncoder", esis: Sequence[int]
    ) -> np.ndarray:
        return _lt_encode(encoder.params, esis, encoder.intermediate_plane)

    def recover_sources(
        self,
        context: "CodecContext",
        params: CodeParameters,
        esis: tuple[int, ...],
        received: np.ndarray,
    ) -> np.ndarray:
        intermediate = context.decode_intermediate(params, esis, received)
        _, missing, _ = _split_esis(params, esis)
        return _lt_encode(params, missing, intermediate)


@register_backend
class PlannedBackend(CodecBackend):
    """One cached plan per K', serving both directions (the default backend).

    The plan's operator is ``A^-1`` for the L x L constraint matrix ``A``
    (S + H constraint rows, then the LT rows of source ESIs 0..K-1).  Since
    the constraint right-hand sides are zero, the intermediate symbols are
    ``C = B . source`` with ``B = A^-1[:, S+H:]``.  A repair symbol ``e`` is
    ``lt_row(e) . C``, that is ``g_e . source`` with ``g_e = lt_row(e) . B``
    -- an XOR of a few rows of ``B``, its *generator row*.

    Encoding never forms ``C``: the r repair symbols a sender emits are the
    r x K generator rows times the source plane, r . K . T work against
    L . K . T for the full intermediate plane, and a sender of a systematic
    code emits few repairs (the eager solve only wins past r = L, more
    repairs than the block has symbols).  A block that is never asked for a
    repair never looks a plan up.

    Decoding stacks the received repairs' generator rows into ``G`` and
    splits the source columns into the ``r`` missing and the known ones:

        ``G[:, missing] . x  =  repairs  XOR  G[:, known] . known_sources``

    an r' x r system in the missing symbols ``x`` alone.  It has full column
    rank exactly when the full system over all L intermediate symbols does
    (``source -> C`` is a bijection and the received source rows pin their
    own symbols), so it fails for the same ESI sets the reference decode
    fails for.  The cost is r . K . T table gathers instead of an O(L^3)
    elimination plus L . K . T; with only repair symbols received (r = K)
    it degenerates to a dense K-unknown solve.
    """

    name = "planned"

    def _generator_basis(
        self, context: "CodecContext", params: CodeParameters, decode: bool = False
    ) -> np.ndarray:
        """``B = A^-1[:, S+H:]`` from the cached per-K' plan (one cache lookup)."""
        plan = context.plan_for(
            ("encode", params),
            lambda: build_plan(constraint_matrix(params), record_steps=False),
            decode=decode,
        )
        return plan.operator[:, params.num_ldpc_symbols + params.num_hdpc_symbols :]

    def repair_symbols(
        self, context: "CodecContext", encoder: "BlockEncoder", esis: Sequence[int]
    ) -> np.ndarray:
        if encoder.generator_basis is None:
            encoder.generator_basis = self._generator_basis(context, encoder.params)
        generator = _lt_encode(encoder.params, esis, encoder.generator_basis)
        return context.kernel.matmul(generator, encoder.source_plane)

    def recover_sources(
        self,
        context: "CodecContext",
        params: CodeParameters,
        esis: tuple[int, ...],
        received: np.ndarray,
    ) -> np.ndarray:
        known, missing, repairs = _split_esis(params, esis)
        basis = self._generator_basis(context, params, decode=True)
        generator = _lt_encode(params, repairs, basis)
        # ``received`` holds the known sources, then the repairs: one operator
        # over that plane yields the missing sources.
        rhs = np.concatenate(
            [generator[:, known], np.eye(repairs.size, dtype=np.uint8)], axis=1
        )
        operator = solve(generator[:, missing], rhs)
        return context.kernel.matmul(operator, received)


class CodecContext:
    """One backend + one GF(256) kernel + one shared plan cache + counters.

    Create one per simulation (the experiment runner does) and hand it to
    every agent so all sessions amortise plan construction; the module-level
    :func:`default_context` serves library users who do not manage contexts.

    Args:
        backend: a registered backend name (``"planned"`` / ``"reference"``)
            or an already-constructed :class:`CodecBackend` instance.
        max_cached_plans: LRU capacity of the elimination-plan cache.
        preload: optional :class:`~repro.rq.plan.PlanStore` whose plans seed
            the cache before any block is processed (used by sharded runs so
            workers start warm; preloading counts neither hits nor misses).
        kernel: a :mod:`repro.rq.kernels` kernel name, ``"auto"``/``None``
            (honour ``REPRO_GF_KERNEL``, then pick the best available), or a
            pre-built :class:`~repro.rq.kernels.GFKernel`.  Every kernel
            produces byte-identical symbols; only wall-clock changes.
    """

    def __init__(
        self,
        backend: Union[str, CodecBackend] = DEFAULT_BACKEND,
        max_cached_plans: int = 256,
        preload: Optional[PlanStore] = None,
        kernel: Union[str, GFKernel, None] = None,
    ) -> None:
        self.backend = create_backend(backend) if isinstance(backend, str) else backend
        self.kernel = get_kernel(kernel)
        self.stats = CacheStats(name="rq_plan_cache")
        self.decode_stats = CacheStats(name="rq_decode_plan_cache")
        self._plans = PlanCache(max_entries=max_cached_plans)
        self.blocks_encoded = 0
        self.blocks_decoded = 0
        if preload is not None:
            self._plans.preload(preload)

    @property
    def backend_name(self) -> str:
        """Name of the active backend."""
        return self.backend.name

    @property
    def kernel_name(self) -> str:
        """Name of the active GF(256) kernel."""
        return self.kernel.name

    @property
    def cached_plans(self) -> int:
        """Number of plans currently held by the cache."""
        return len(self._plans)

    def plan_for(self, key, builder, decode: bool = False) -> EliminationPlan:
        """Fetch a plan from the shared cache, counting hits and misses.

        ``decode=True`` additionally books the lookup on the decode-side
        counters (``decode_stats``): a miss there means a block was decoded
        before any block of its K' had been encoded or decoded in this context.
        """
        plan, hit = self._plans.get_or_build(key, builder)
        if hit:
            self.stats.record_hit()
            if decode:
                self.decode_stats.record_hit()
        else:
            self.stats.record_miss()
            if decode:
                self.decode_stats.record_miss()
        self.stats.evictions = self._plans.evictions
        return plan

    def encode_intermediate(self, params: CodeParameters, source: np.ndarray) -> np.ndarray:
        """The (L x T) intermediate plane of a (K x T) source plane: a full, uncached solve.

        Eliminates the L x L constraint matrix against ``[0; source]``.  Only
        the ``reference`` backend encodes this way (through
        :attr:`BlockEncoder.intermediate_plane`); it is the oracle
        :meth:`CodecBackend.repair_symbols` is tested against.
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
        eliminates all L unknowns.  Only the ``reference`` backend decodes
        this way; it is the oracle :meth:`recover_sources` is tested against.
        """
        constraints = params.num_ldpc_symbols + params.num_hdpc_symbols
        rhs = np.zeros((constraints + len(esis), received.shape[1]), dtype=np.uint8)
        rhs[constraints:] = received
        return solve(received_matrix(params, esis), rhs)

    def recover_sources(
        self, params: CodeParameters, esis: Sequence[int], received: np.ndarray
    ) -> np.ndarray:
        """Decode one block: its missing source symbols (see :class:`CodecBackend`)."""
        self.blocks_decoded += 1
        return self.backend.recover_sources(self, params, tuple(esis), received)

    def snapshot_plans(self) -> PlanStore:
        """Export the current plan cache as a picklable :class:`PlanStore`."""
        return self._plans.snapshot()

    def preload_plans(self, store: PlanStore) -> int:
        """Seed the plan cache from a store; returns how many plans were new."""
        return self._plans.preload(store)

    def stats_dict(self) -> dict:
        """A JSON-friendly snapshot for experiment reports."""
        return {
            "backend": self.backend_name,
            "kernel": self.kernel_name,
            "blocks_encoded": self.blocks_encoded,
            "blocks_decoded": self.blocks_decoded,
            "plan_cache": self.stats.as_dict(),
            "decode_plan_cache": self.decode_stats.as_dict(),
            "cached_plans": self.cached_plans,
        }


_default_context: Optional[CodecContext] = None


def default_context() -> CodecContext:
    """The process-wide context used when callers do not supply one."""
    global _default_context
    if _default_context is None:
        _default_context = CodecContext(DEFAULT_BACKEND)
    return _default_context


def set_default_backend(name: str) -> CodecContext:
    """Replace the process-wide default context with one for ``name``."""
    global _default_context
    _default_context = CodecContext(name)
    return _default_context


# Plan pre-warming -------------------------------------------------------------------


def prewarm_encode_plans(
    k_values: Iterable[int], store: Optional[PlanStore] = None
) -> PlanStore:
    """Build the per-K' elimination plan for each block size K.

    The plan is a pure function of K and is the only one either direction
    looks up, so pre-warming is exact: every block of ``k`` source symbols
    anywhere in a run will hit, encoding or decoding, whatever it lost.  The
    keys are the ones :class:`PlannedBackend` builds lazily, so a store
    produced here is indistinguishable from one snapshotted after a run.
    Returns the (possibly supplied) store with the plans added.
    """
    store = store if store is not None else PlanStore()
    for k in sorted(set(k_values)):
        params = for_k(k)
        key = ("encode", params)
        if key not in store:
            store.add(key, build_plan(constraint_matrix(params), record_steps=False))
    return store
