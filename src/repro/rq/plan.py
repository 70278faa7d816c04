"""Cached elimination plans: factorise once per K', replay per block.

The RFC 6330 style codec spends nearly all of its CPU in Gaussian
elimination, yet the matrix being eliminated depends only on the code
parameters: the L x L constraint matrix is a pure function of K'.  An
:class:`EliminationPlan` captures one elimination as

* the ordered **row-op sequence** (swap / scale / fused multiply-XOR)
  recorded as numpy index arrays while :func:`repro.rq.solver.solve` runs,
  and
* the fused **solution operator** ``R`` obtained by applying that sequence
  to an identity right-hand side, so that for any symbol plane ``D`` the
  solution of ``A . X = D`` is simply ``R . D``.

Replaying a plan over the (n x symbol_size) symbol plane of a block is one
batched GF(256) matrix product -- no pivot searches, no matrix-side row
operations, no per-step allocations.  The byte work of that product
executes on a pluggable :mod:`repro.rq.kernels` kernel; every kernel
computes identical bytes, so plans and kernels compose freely.
Plans are immutable and safe to share across sessions, simulations and
processes.

Only one plan per K' -- the inverse of the L x L constraint matrix, keyed
``("encode", params)`` -- is ever cached, and the codec never replays it
whole: because the code is systematic, the repair symbols a sender emits and
the missing source symbols of a received block both follow from a few rows
of that inverse (see :class:`repro.rq.backend.PlannedBackend`), so nothing
is keyed by loss pattern.  The persistent :class:`PlanStore` records a
schema number (:data:`PLAN_STORE_SCHEMA`) so stores written under an older
key convention are rejected cleanly instead of shipping plans nothing looks
up.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Hashable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.rq.gf256 import gf_matmul, gf_scale_rows, gf_scale_vector
from repro.rq.matrix import build_constraint_matrix, hdpc_rows, ldpc_rows, lt_row
from repro.rq.params import CodeParameters
from repro.rq.solver import solve

if TYPE_CHECKING:  # pragma: no cover
    from repro.rq.kernels import GFKernel

#: Version of the plan-key schema a :class:`PlanStore` is written under.
#: Bumped whenever the key convention changes (v1: decode plans keyed by the
#: exact received-ESI set; v2: canonical missing-source-pattern decode keys;
#: v3: encode plans only), so a persisted store from another schema is
#: rejected instead of silently carrying plans nothing will ever look up.
PLAN_STORE_SCHEMA = 3


class PlanStoreSchemaError(ValueError):
    """A persisted :class:`PlanStore` was written under a different key schema."""


@dataclass(frozen=True)
class PlanStep:
    """One recorded row operation.

    ``kind`` is ``"swap"`` (rows = [a, b]), ``"scale"`` (rows = [row],
    factors = [factor]) or ``"xor"`` (rows = targets, factors = per-target
    multipliers, source_row = the pivot row XORed into the targets).
    """

    kind: str
    rows: np.ndarray
    factors: np.ndarray
    source_row: int = -1


class _StepRecorder:
    """Collects the row-op sequence emitted by the solver."""

    def __init__(self) -> None:
        self.steps: list[PlanStep] = []

    def swap(self, row_a: int, row_b: int) -> None:
        self.steps.append(
            PlanStep("swap", np.array([row_a, row_b], dtype=np.intp), np.empty(0, dtype=np.uint8))
        )

    def scale(self, row: int, factor: int) -> None:
        self.steps.append(
            PlanStep("scale", np.array([row], dtype=np.intp), np.array([factor], dtype=np.uint8))
        )

    def eliminate(self, source_row: int, targets: np.ndarray, factors: np.ndarray) -> None:
        self.steps.append(
            PlanStep("xor", targets.astype(np.intp), factors.astype(np.uint8), source_row)
        )


@dataclass(frozen=True)
class EliminationPlan:
    """A recorded, replayable Gaussian elimination of one fixed matrix.

    ``steps`` is the recorded row-op tape, or ``None`` when the plan was
    built with ``record_steps=False`` (the cached production path keeps only
    the fused operator, halving per-plan memory).
    """

    num_rows: int
    num_unknowns: int
    operator: np.ndarray
    steps: Optional[tuple[PlanStep, ...]]

    def apply(self, rhs: np.ndarray, kernel: Optional["GFKernel"] = None) -> np.ndarray:
        """Solve for the unknowns given a full (num_rows x T) right-hand side.

        ``kernel`` selects the :mod:`repro.rq.kernels` implementation of the
        batched product; ``None`` uses the numpy ground truth.  The result is
        byte-identical for every kernel.
        """
        if rhs.shape[0] != self.num_rows:
            raise ValueError(f"plan expects {self.num_rows} rhs rows, got {rhs.shape[0]}")
        matmul = gf_matmul if kernel is None else kernel.matmul
        return matmul(self.operator, rhs)

    def replay(self, rhs: np.ndarray) -> np.ndarray:
        """Step-by-step replay of the recorded row ops (reference/testing path).

        Produces exactly what :meth:`apply` computes via the fused operator;
        tests use the agreement of the two paths to validate plan recording.
        """
        if self.steps is None:
            raise ValueError("plan was built with record_steps=False; no op tape to replay")
        work = rhs.astype(np.uint8).copy()
        for step in self.steps:
            if step.kind == "swap":
                a, b = step.rows
                work[[a, b]] = work[[b, a]]
            elif step.kind == "scale":
                work[step.rows[0]] = gf_scale_vector(work[step.rows[0]], int(step.factors[0]))
            else:
                source = work[step.source_row]
                work[step.rows] ^= gf_scale_rows(
                    np.tile(source, (step.rows.size, 1)), step.factors
                )
        return work[: self.num_unknowns]


def build_plan(
    matrix: np.ndarray,
    num_unknowns: Optional[int] = None,
    record_steps: bool = True,
) -> EliminationPlan:
    """Eliminate ``matrix`` once, recording the ops and the fused operator.

    ``record_steps=False`` keeps only the fused operator (what replay needs);
    the op tape is O(L^2) numpy data, so cached production plans skip it.

    Raises :class:`repro.rq.solver.SingularMatrixError` when the matrix does
    not have full column rank, exactly like a direct solve would.
    """
    recorder = _StepRecorder() if record_steps else None
    rows = matrix.shape[0]
    identity = np.eye(rows, dtype=np.uint8)
    operator = solve(matrix, identity, num_unknowns, recorder=recorder)
    operator.setflags(write=False)
    return EliminationPlan(
        num_rows=rows,
        num_unknowns=operator.shape[0],
        operator=operator,
        steps=tuple(recorder.steps) if recorder is not None else None,
    )


# Structure caches ------------------------------------------------------------------
#
# These depend only on the (frozen, hashable) CodeParameters, so they are
# process-global: every context, session and simulation shares them.  The
# returned arrays are marked read-only; callers copy before mutating.


@lru_cache(maxsize=None)
def constraint_matrix(params: CodeParameters) -> np.ndarray:
    """The L x L pre-code constraint matrix A for one parameter set."""
    matrix = build_constraint_matrix(params)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=None)
def precode_rows(params: CodeParameters) -> np.ndarray:
    """The (S + H) x L LDPC + HDPC constraint rows for one parameter set."""
    s = params.num_ldpc_symbols
    h = params.num_hdpc_symbols
    rows = np.zeros((s + h, params.num_intermediate_symbols), dtype=np.uint8)
    rows[:s] = ldpc_rows(params)
    rows[s:] = hdpc_rows(params)
    rows.setflags(write=False)
    return rows


def received_matrix(params: CodeParameters, esis: Sequence[int]) -> np.ndarray:
    """The decode-side coefficient matrix for one set of received ESIs."""
    l = params.num_intermediate_symbols
    constraints = precode_rows(params)
    matrix = np.zeros((constraints.shape[0] + len(esis), l), dtype=np.uint8)
    matrix[: constraints.shape[0]] = constraints
    for offset, esi in enumerate(esis):
        matrix[constraints.shape[0] + offset] = lt_row(params, esi)
    return matrix


@dataclass
class PlanStore:
    """A picklable bag of elimination plans, keyed like the live plan cache.

    This is the artifact that crosses process boundaries: the parent of a
    sharded experiment snapshots (or pre-warms) a store, serialises it once,
    and every worker preloads its per-run :class:`PlanCache` from it so warm
    -block speedups apply from the first block of the first transfer.  Plans
    are immutable, so a store can be shared by any number of caches.

    Keys follow the convention of :mod:`repro.rq.backend`:
    ``("encode", params)``, the one plan per K' both encoding and decoding
    use.  The ``schema`` field records which key convention the store was
    written under; loading a store from a different schema raises
    :class:`PlanStoreSchemaError` so stale keys can never poison a cache --
    callers treat that as "rebuild", never as fatal.
    """

    plans: dict[Hashable, EliminationPlan] = field(default_factory=dict)
    schema: int = PLAN_STORE_SCHEMA

    def __len__(self) -> int:
        return len(self.plans)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.plans

    def add(self, key: Hashable, plan: EliminationPlan) -> None:
        """Insert (or replace) one plan."""
        self.plans[key] = plan

    def merge(self, other: "PlanStore") -> None:
        """Absorb every plan of ``other`` (existing keys are kept)."""
        for key, plan in other.plans.items():
            self.plans.setdefault(key, plan)

    def to_bytes(self) -> bytes:
        """Serialise the store (pickle) for shipping to worker processes."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "PlanStore":
        """Rebuild a store serialised with :meth:`to_bytes`.

        Raises :class:`PlanStoreSchemaError` when the store was written
        under a different plan-key schema (including pre-versioning stores,
        which unpickle as schema 1): its keys would never be looked up under
        the current convention, so serving them would waste cache capacity
        at best and replay stale plans at worst.
        """
        store = pickle.loads(payload)
        if not isinstance(store, cls):
            raise TypeError(f"payload does not contain a PlanStore (got {type(store)!r})")
        if store.schema != PLAN_STORE_SCHEMA:
            raise PlanStoreSchemaError(
                f"plan store uses key schema v{store.schema}, this build expects "
                f"v{PLAN_STORE_SCHEMA}; discard the store and rebuild"
            )
        return store

    def save(self, path: Union[str, Path]) -> Path:
        """Write the store to ``path``; returns the path written."""
        path = Path(path)
        path.write_bytes(self.to_bytes())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PlanStore":
        """Read a store previously written by :meth:`save`."""
        return cls.from_bytes(Path(path).read_bytes())

    def __setstate__(self, state: Mapping) -> None:
        # Unpickled numpy arrays come back writable; re-freeze the operators
        # so shared plans stay immutable in every process.  Stores pickled
        # before versioning carry no schema field: they were written under
        # the exact-ESI keying, i.e. schema 1.
        self.__dict__.update(state)
        self.schema = state.get("schema", 1)
        for plan in self.plans.values():
            plan.operator.setflags(write=False)


class PlanCache:
    """A bounded LRU mapping of plan keys to :class:`EliminationPlan` objects.

    One instance is shared by every session of a simulation (via the
    :class:`repro.rq.backend.CodecContext`); because plans are immutable the
    cache needs no locking for the single-threaded simulator, and its
    contents can be exported to / imported from a :class:`PlanStore` for
    multi-process shards.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.evictions = 0
        self._plans: "OrderedDict[Hashable, EliminationPlan]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

    def get_or_build(
        self, key: Hashable, builder: Callable[[], EliminationPlan]
    ) -> tuple[EliminationPlan, bool]:
        """Return ``(plan, was_cache_hit)`` for ``key``, building on miss."""
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            return plan, True
        plan = builder()
        self._plans[key] = plan
        if len(self._plans) > self.max_entries:
            self._plans.popitem(last=False)
            self.evictions += 1
        return plan, False

    def snapshot(self) -> PlanStore:
        """Export the current contents as an immutable, picklable store."""
        return PlanStore(dict(self._plans))

    def preload(self, store: PlanStore) -> int:
        """Seed the cache from a store; returns how many plans were inserted.

        Preloading does not count as hits or misses (nothing was looked up)
        but does respect ``max_entries``: if the store is larger than the
        cache, the oldest insertions are evicted as usual.
        """
        inserted = 0
        for key, plan in store.plans.items():
            if key in self._plans:
                continue
            self._plans[key] = plan
            inserted += 1
            if len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)
                self.evictions += 1
        return inserted
