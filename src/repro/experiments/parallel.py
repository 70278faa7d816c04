"""Sharded parallel experiment execution over a persistent process pool.

Every figure and ablation of the paper is a *sweep*: the cartesian product
of seeds, protocols and scenario parameters, where each cell is one
independent simulation run.  This module turns such a sweep into a list of
:class:`RunJob` descriptions and executes them either in-process or across
a **persistent stdlib process pool**, with three guarantees:

1. **Determinism.**  A job is a pure function of its fields: it runs on
   the process's one ``FatTreeTopology(k)`` for the config's ``k`` (a pure
   function of ``k``, whose healthy routing every run shares read-only;
   switches, ports, queues and agents are built fresh), seeds fresh random
   streams from the config's seed and replays the transfer list the parent
   generated.  Results are merged in
   job-submission order regardless of which worker finished first, so the
   output of ``num_workers=N`` is byte-identical to ``num_workers=1`` for
   every N -- and for every chunk size.

2. **One transport.**  A batch of jobs crosses to a worker as one pickle and
   its results come back as one pickle.  Neither holds an ndarray (runs
   count codec work, they do not return planes), so there is nothing a
   zero-copy channel could move out of band.

3. **Amortised start-up.**  The pool is a
   :class:`concurrent.futures.ProcessPoolExecutor` kept alive across sweeps,
   forked from this already-imported process on Linux and spawned elsewhere:
   the second ``execute_jobs`` call of an invocation pays no start-up cost
   at all, and a worker builds the codec's per-K' basis
   (:func:`repro.rq.backend.generator_basis`) the first time one of its jobs
   codes a block of that K', then keeps it.  Jobs are submitted in chunked
   batches; an idle worker takes the next queued batch.

Every call records an :class:`ExecutorProfile` (per-phase wall clock and
``bytes_shipped`` through the pipe), readable via :func:`last_profile` and
surfaced by ``--progress`` and the benchmarks.

Typical use (what the figure drivers do internally)::

    from repro.experiments.parallel import RunJob, execute_jobs

    jobs = [RunJob(key=(seed, label), protocol=proto, config=cfg.with_seed(seed),
                   transfers=tuple(transfers))
            for seed in seeds for (label, proto, transfers) in cells]
    results = execute_jobs(jobs, num_workers=4)   # same output as num_workers=1
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Callable, Hashable, Iterator, Optional, Sequence, Union

from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.runner import RunResult, run_transfers
from repro.faults.schedule import FaultSchedule
from repro.network.network import NetworkConfig
from repro.obs.recorder import TelemetryRecord
from repro.obs.registry import WindowedRate

#: Start method used for worker pools.  A forked worker shares the parent's
#: already-imported modules, while a spawned one starts a fresh interpreter
#: and rebuilds them; platforms without a safe ``fork`` (macOS, Windows)
#: spawn.  Either way every job batch and result list crosses as a pickle.
DEFAULT_START_METHOD = "fork" if sys.platform == "linux" else "spawn"

#: Called after each job completes (in job order): (index, total, job, result).
ProgressCallback = Callable[[int, int, "RunJob", RunResult], None]


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity/cgroup aware).

    ``os.sched_getaffinity`` reflects taskset masks and container CPU
    limits; ``os.cpu_count`` reports the machine and silently over-counts
    on throttled runners.  Falls back to ``cpu_count`` on platforms without
    affinity support (macOS, Windows).
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Union[int, str]) -> int:
    """Resolve a worker count: ``"auto"`` means one worker per *available* core.

    Accepts an int, a decimal string, or the literal ``"auto"`` (case
    insensitive); anything else, or a count below 1, raises ``ValueError``.
    ``auto`` respects CPU affinity and cgroup limits via
    :func:`available_cpus` rather than raw ``os.cpu_count()``.  This is what
    the CLI's ``--jobs`` flag funnels through.
    """
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            return available_cpus()
        jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return jobs


#: sliding window of the --progress throughput/ETA estimate (wall seconds).
_PROGRESS_WINDOW_S = 20.0
_progress_rate = WindowedRate(window_s=_PROGRESS_WINDOW_S)


def log_progress(index: int, total: int, job: "RunJob", result: RunResult) -> None:
    """The default per-job progress logger: one stderr line per finished job.

    Reports throughput (cells/second over a sliding wall-clock window) and
    the ETA it implies for the sweep's remaining jobs once a rate can be
    estimated (from the second job onwards).  Written to stderr so the
    stdout tables stay byte-identical whether or not progress logging is on.
    """
    now = time.perf_counter()
    if index == 0:
        _progress_rate.reset()
    _progress_rate.record(now)
    pace = ""
    rate = _progress_rate.rate(now)
    if rate > 0.0:
        pace = f"  rate={rate:.2f}/s"
        remaining = total - (index + 1)
        if remaining:
            pace += f"  eta={remaining / rate:.0f}s"
    print(
        f"[repro] job {index + 1}/{total} done  key={job.key!r}  "
        f"protocol={job.protocol.value}  sim={result.sim_time_s:.3f}s  "
        f"wall={result.wall_time_s:.2f}s{pace}",
        file=sys.stderr,
        flush=True,
    )


#: Process-wide default progress callback; ``execute_jobs`` falls back to it
#: when no explicit ``progress`` argument is given.  The CLI installs
#: :func:`log_progress` here so every sweep of an invocation reports per-job
#: progress without threading a callback through each scenario module.
_default_progress: Optional[ProgressCallback] = None


def set_progress_logger(callback: Optional[ProgressCallback]) -> None:
    """Install (or, with ``None``, remove) the process-wide progress callback."""
    global _default_progress
    _default_progress = callback


@dataclass(frozen=True)
class RunJob:
    """One independent simulation run of a sweep, fully described by value.

    Attributes:
        key: scenario-specific identity (e.g. ``(seed, "3 Replicas RQ")``)
            used by callers to map merged results back to sweep cells; the
            executor itself only carries it through.
        protocol: transport under test.
        config: the experiment configuration (carries the seed; the run
            uses the process's shared ``FatTreeTopology(config.fattree_k)``,
            see :func:`repro.network.topology.shared_fattree`).
        transfers: the protocol-independent workload, generated by the
            parent so every protocol sees byte-identical offered traffic.
        polyraptor_config: optional protocol-parameter override (used by the
            initial-window ablation).
        network_config: optional fabric override (used by the trimming and
            spraying ablations).
        fault_schedule: optional declarative fault schedule executed against
            the run's fabric (used by the resilience and correlated
            experiments); schedules are immutable value objects, so they
            pickle to workers unchanged.  Routing-convergence lag needs no
            field of its own: it rides inside ``config.convergence_delay_s``
            and its jitter draws from the run's seeded streams, so delayed
            reinstalls stay byte-identical for any worker count.
    """

    key: Hashable
    protocol: Protocol
    config: ExperimentConfig
    transfers: tuple
    polyraptor_config: Optional[PolyraptorConfig] = None
    network_config: Optional[NetworkConfig] = None
    fault_schedule: Optional[FaultSchedule] = None


def run_job(job: RunJob) -> RunResult:
    """Execute one job to completion in the current process.

    Both execution paths funnel through here -- the sequential loop directly
    and each pool worker via :func:`_run_batch` -- so a job's result cannot
    depend on *where* it ran.  Every Polyraptor job counts its codec work in
    a fresh codec context of its own, and runs on the process's shared
    fat-tree, whose healthy routes it reads but never writes.
    """
    return run_transfers(
        job.protocol,
        job.config,
        list(job.transfers),
        polyraptor_config=job.polyraptor_config,
        network_config=job.network_config,
        fault_schedule=job.fault_schedule,
    )


# Executor profile -------------------------------------------------------------------


@dataclass
class ExecutorProfile:
    """Per-phase accounting for one ``execute_jobs`` call.

    ``bytes_shipped`` counts the pickled job batches and result lists that
    crossed the process pipe.  Wall-clock phases: ``pool_spawn_s``
    (parent-observed time until every worker answered -- the forks, or the
    spawned workers' interpreter start-up and imports; zero when the
    persistent pool was reused), ``worker_init_s`` (CPU time the slowest
    worker spent starting up, paid once per pool), ``serialize_s``
    (pickling and unpickling of job batches on both sides and of results in
    the workers), ``merge_s`` (parent-side unpickling of results and the
    in-order merge) and ``run_s`` (summed worker simulation time).
    """

    label: str = ""
    transport: str = "inline"
    workers: int = 1
    pool_reused: bool = False
    jobs_total: int = 0
    chunk_size: int = 1
    num_batches: int = 0
    cpu_count: int = 1
    bytes_shipped: int = 0
    # Nothing goes through shared memory, nothing is pre-warmed or shipped
    # ahead of the jobs; the benchmark ledger still reads these three, so
    # they stay, pinned at zero.
    shm_bytes: int = 0
    prewarm_s: float = 0.0
    plans_ship_s: float = 0.0
    pool_spawn_s: float = 0.0
    worker_init_s: float = 0.0
    serialize_s: float = 0.0
    merge_s: float = 0.0
    run_s: float = 0.0
    wall_s: float = 0.0

    def as_dict(self) -> dict:
        """A JSON-friendly snapshot (what benchmarks record)."""
        return asdict(self)


_last_profile: Optional[ExecutorProfile] = None


def last_profile() -> Optional[ExecutorProfile]:
    """The profile of the most recent :func:`execute_jobs` call, if any."""
    return _last_profile


# Telemetry collection ---------------------------------------------------------------
#
# Runs carry their flight-recorder output inside RunResult.telemetry (plain
# dicts, so they pickle back to the parent unchanged); execute_jobs
# additionally accumulates them here -- mirroring the _last_profile pattern --
# so the CLI can export every sweep of an invocation without threading
# telemetry through each scenario module's result type.  Only
# telemetry-carrying runs are appended: with telemetry off this list never
# grows.

_telemetry_records: list[TelemetryRecord] = []


def collected_telemetry() -> list[TelemetryRecord]:
    """Telemetry records accumulated by :func:`execute_jobs` since the last clear.

    In job order within each sweep and sweep order across sweeps -- i.e.
    byte-identical for every worker count and chunk size.
    """
    return list(_telemetry_records)


def clear_telemetry() -> None:
    """Drop every accumulated telemetry record (start of a fresh invocation)."""
    _telemetry_records.clear()


def _accumulate_telemetry(label: str, jobs: Sequence["RunJob"], results: Sequence[RunResult]) -> None:
    for job, result in zip(jobs, results):
        if result.telemetry is not None:
            _telemetry_records.append(
                TelemetryRecord(label=label, key=job.key, data=result.telemetry)
            )


def log_exec_profile(profile: ExecutorProfile) -> None:
    """One stderr summary line per sweep (printed when --progress is on)."""
    print(
        f"[repro] sweep {profile.label or 'jobs'}: {profile.jobs_total} jobs, "
        f"{profile.workers} workers{' (pool reused)' if profile.pool_reused else ''}, "
        f"chunk={profile.chunk_size}  wall={profile.wall_s:.2f}s  "
        f"run={profile.run_s:.2f}s  serialize={profile.serialize_s * 1e3:.1f}ms  "
        f"merge={profile.merge_s * 1e3:.1f}ms  "
        f"shipped={profile.bytes_shipped}B",
        file=sys.stderr,
        flush=True,
    )


def _resolve_chunk(chunk: Optional[int], total: int, workers: int) -> int:
    """Default chunking: ~4 batches per worker bounds idle tails and IPC."""
    if chunk is None:
        chunk = max(1, -(-total // (workers * 4)))
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    return chunk


# Worker pool ------------------------------------------------------------------------


class WorkerJobError(RuntimeError):
    """A job raised inside a worker; the worker's exception is the cause."""


def _worker_started() -> float:
    """Worker side: the CPU seconds this process has used so far -- its start-up."""
    return time.process_time()


def _run_batch(jobs_blob: bytes) -> tuple[bytes, float, float]:
    """Worker side: run one pickled batch of jobs.

    Returns the pickled results, the simulation time and the time spent
    unpickling the jobs and pickling the results.
    """
    start = time.perf_counter()
    jobs = pickle.loads(jobs_blob)
    run_start = time.perf_counter()
    runs = [run_job(job) for job in jobs]
    pack_start = time.perf_counter()
    results_blob = pickle.dumps(runs, protocol=pickle.HIGHEST_PROTOCOL)
    packed = time.perf_counter()
    return results_blob, pack_start - run_start, (run_start - start) + (packed - pack_start)


@contextmanager
def _frozen_heap() -> Iterator[None]:
    """Hold this process's heap in the permanent generation while workers fork.

    Each forked worker keeps what it inherited frozen, so its collector never
    scans those objects or writes to the pages it shares with this process.
    This process unfreezes at once, which leaves every object it tracks in
    the oldest generation.
    """
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class WorkerPool:
    """A persistent :class:`ProcessPoolExecutor`.

    The module keeps one instance alive (see :func:`get_worker_pool`) so the
    start-up cost is paid once per process, not once per ``execute_jobs``
    call.  Construction starts every worker, so ``spawn_s`` is the whole
    start-up bill.
    """

    def __init__(self, num_workers: int, start_method: str = DEFAULT_START_METHOD) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be at least 1, got {num_workers}")
        self.num_workers = num_workers
        self.start_method = start_method
        spawn_start = time.perf_counter()
        self.executor = ProcessPoolExecutor(
            num_workers, mp_context=multiprocessing.get_context(start_method)
        )
        # Under spawn the executor starts a worker per submission while none
        # is idle, so probes submitted together -- before any can answer --
        # start them all; under fork the first submission forks every worker.
        with _frozen_heap() if start_method == "fork" else nullcontext():
            probes = [self.executor.submit(_worker_started) for _ in range(num_workers)]
        self.worker_init_s = max(probe.result() for probe in probes)
        self.spawn_s = time.perf_counter() - spawn_start

    def run_jobs(
        self,
        jobs: Sequence[RunJob],
        chunk_size: int,
        progress: Optional[ProgressCallback],
        profile: ExecutorProfile,
    ) -> list[RunResult]:
        """Run ``jobs`` across the pool; results return in job order.

        Every batch of ``chunk_size`` consecutive jobs is submitted up front
        and an idle worker takes the next one; results are merged in
        submission order, so the output (and the order of ``progress``
        callbacks) is independent of scheduling.  If a job raises, the
        batches no worker has started yet are cancelled before
        :class:`WorkerJobError` propagates.
        """
        starts = range(0, len(jobs), chunk_size)
        profile.num_batches = len(starts)
        futures = []
        merged: list[RunResult] = []
        try:
            for at in starts:
                pack_start = time.perf_counter()
                blob = pickle.dumps(jobs[at:at + chunk_size], protocol=pickle.HIGHEST_PROTOCOL)
                profile.serialize_s += time.perf_counter() - pack_start
                profile.bytes_shipped += len(blob)
                futures.append(self.executor.submit(_run_batch, blob))
            for batch_id, (at, future) in enumerate(zip(starts, futures)):
                try:
                    blob, run_s, serialize_s = future.result()
                except BrokenProcessPool:
                    raise
                except Exception as error:
                    keys = [job.key for job in jobs[at:at + chunk_size]]
                    raise WorkerJobError(
                        f"batch {batch_id} (job keys {keys}) failed: {error!r}"
                    ) from error
                merge_start = time.perf_counter()
                merged.extend(pickle.loads(blob))
                profile.bytes_shipped += len(blob)
                profile.run_s += run_s
                profile.serialize_s += serialize_s
                if progress is not None:
                    for index in range(at, len(merged)):
                        progress(index, len(jobs), jobs[index], merged[index])
                profile.merge_s += time.perf_counter() - merge_start
        finally:
            for future in futures:
                future.cancel()
        return merged

    def close(self) -> None:
        """Stop every worker, dropping batches none has started."""
        self.executor.shutdown(wait=True, cancel_futures=True)


_pool: Optional[WorkerPool] = None


def get_worker_pool(
    num_workers: int, start_method: str = DEFAULT_START_METHOD
) -> tuple[WorkerPool, bool]:
    """The process-wide persistent pool; returns ``(pool, was_reused)``.

    A pool is reused while the requested shape (worker count, start method)
    matches; a mismatch shuts the old pool down and starts a fresh one.  The
    pool is torn down automatically at interpreter exit.
    """
    global _pool
    if _pool is not None:
        if _pool.num_workers == num_workers and _pool.start_method == start_method:
            return _pool, True
        shutdown_worker_pool()
    _pool = WorkerPool(num_workers, start_method=start_method)
    return _pool, False


def warm_worker_pool(
    num_workers: int,
    start_method: str = DEFAULT_START_METHOD,
    transport: Optional[str] = None,
) -> WorkerPool:
    """Ensure the persistent pool exists and is warm (benchmark helper).

    ``transport`` is accepted from existing callers and ignored: every
    payload is pickled.
    """
    pool, _ = get_worker_pool(num_workers, start_method=start_method)
    return pool


def shutdown_worker_pool() -> None:
    """Tear down the persistent pool (no-op when none is running)."""
    global _pool
    if _pool is not None:
        try:
            _pool.close()
        finally:
            _pool = None


atexit.register(shutdown_worker_pool)


def execute_jobs(
    jobs: Sequence[RunJob],
    num_workers: int = 1,
    start_method: str = DEFAULT_START_METHOD,
    progress: Optional[ProgressCallback] = None,
    transport: Optional[str] = None,
    chunk: Optional[int] = None,
    label: str = "",
) -> list[RunResult]:
    """Run every job and return their results in job order.

    Args:
        jobs: the expanded sweep.
        num_workers: how many worker processes to shard across; ``<= 1``
            runs everything sequentially in this process (no pool, no
            pickling) but with identical semantics.
        start_method: multiprocessing start method; ``fork`` on Linux and
            ``spawn`` elsewhere by default.
        progress: optional per-job callback ``(index, total, job, result)``,
            invoked in job order as results arrive (the CLI wires
            :func:`log_progress` here); it never affects results.
        transport: accepted from existing callers and ignored: every payload
            is pickled.
        chunk: jobs per submitted batch; ``None`` means ~4 batches per
            worker.  Affects scheduling granularity only, never results.
        label: a short sweep name recorded in the executor profile and
            progress output.

    Returns:
        ``[run_job(job) for job in jobs]`` -- the merge is a stable,
        order-preserving map, so callers can zip results with their job list
        no matter how many workers ran.

    Raises:
        WorkerJobError: a job raised in a worker; the pool stays usable.
        BrokenProcessPool: a worker died; the next sweep starts a fresh pool.

    Every call records an :class:`ExecutorProfile` retrievable via
    :func:`last_profile`.
    """
    global _last_profile
    wall_start = time.perf_counter()
    jobs = list(jobs)
    total = len(jobs)
    if progress is None:
        progress = _default_progress
    profile = ExecutorProfile(label=label, jobs_total=total, cpu_count=available_cpus())
    if num_workers <= 1 or total <= 1:
        results: list[RunResult] = []
        run_start = time.perf_counter()
        for index, job in enumerate(jobs):
            result = run_job(job)
            if progress is not None:
                progress(index, total, job, result)
            results.append(result)
        profile.run_s = time.perf_counter() - run_start
        profile.wall_s = time.perf_counter() - wall_start
        _last_profile = profile
        _accumulate_telemetry(label, jobs, results)
        return results
    pool, reused = get_worker_pool(num_workers, start_method=start_method)
    profile.transport = "pickle"
    profile.workers = pool.num_workers
    profile.pool_reused = reused
    profile.pool_spawn_s = 0.0 if reused else pool.spawn_s
    profile.worker_init_s = pool.worker_init_s
    profile.chunk_size = _resolve_chunk(chunk, total, pool.num_workers)
    try:
        results = pool.run_jobs(jobs, profile.chunk_size, progress, profile)
    except BrokenProcessPool:
        # The executor refuses all further work once a worker has died.
        shutdown_worker_pool()
        raise
    profile.wall_s = time.perf_counter() - wall_start
    _last_profile = profile
    _accumulate_telemetry(label, jobs, results)
    if progress is log_progress:
        log_exec_profile(profile)
    return results
