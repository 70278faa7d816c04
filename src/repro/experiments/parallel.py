"""Sharded parallel experiment execution over a persistent worker pool.

Every figure and ablation of the paper is a *sweep*: the cartesian product
of seeds, protocols and scenario parameters, where each cell is one
independent simulation run.  This module turns such a sweep into a list of
:class:`RunJob` descriptions and executes them either in-process or across
a **persistent pool of warm worker processes**, with three guarantees:

1. **Determinism.**  A job is a pure function of its fields: the worker
   rebuilds the topology from the config (``FatTreeTopology`` is a pure
   function of ``k``), seeds fresh random streams from the config's seed and
   replays the transfer list the parent generated.  Results are merged in
   job-submission order regardless of which worker finished first, so the
   output of ``num_workers=N`` is byte-identical to ``num_workers=1`` for
   every N -- and for every transport and chunk size.

2. **Cheap transport.**  Job batches and per-job results cross the process
   boundary through ``multiprocessing.shared_memory`` segments
   (:mod:`repro.experiments.shm`): ndarray planes are written once into the
   segment and mapped by the consumer, so only tiny descriptors travel
   through the pipe.  When shared memory is unavailable the executor falls
   back transparently to pickle payloads -- results are identical, only
   ``bytes_shipped`` grows.

3. **Amortised start-up.**  Workers are spawned once per process and kept
   alive across sweeps: the second ``execute_jobs`` call of an invocation
   pays no spawn or import cost, and a worker builds the codec's per-K'
   basis (:func:`repro.rq.backend.generator_basis`) the first time one of
   its jobs codes a block of that K', then keeps it.  Jobs are dispatched
   in chunked batches with dynamic load balancing (a worker gets its next
   batch when it finishes one).

Every sharded call records an :class:`ExecutorProfile` (per-phase wall
clock, ``bytes_shipped`` through the pipe, ``shm_bytes`` through shared
memory), readable via :func:`last_profile` and surfaced by ``--progress``
and the benchmarks.

Typical use (what the figure drivers do internally)::

    from repro.experiments.parallel import RunJob, execute_jobs

    jobs = [RunJob(key=(seed, label), protocol=proto, config=cfg.with_seed(seed),
                   transfers=tuple(transfers))
            for seed in seeds for (label, proto, transfers) in cells]
    results = execute_jobs(jobs, num_workers=4)   # same output as num_workers=1
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Callable, Hashable, Optional, Sequence, Union

from repro.core.config import PolyraptorConfig
from repro.experiments import shm
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.runner import RunResult, run_transfers
from repro.faults.schedule import FaultSchedule
from repro.network.network import NetworkConfig
from repro.network.topology import FatTreeTopology
from repro.obs.recorder import TelemetryRecord
from repro.obs.registry import WindowedRate

#: Start method used for worker pools; ``spawn`` is the portable choice and
#: proves that every job artefact survives pickling.
DEFAULT_START_METHOD = "spawn"

#: Transports a sharded run can use for payloads: ``shm`` (shared-memory
#: segments, tiny pipe descriptors), ``pickle`` (everything through the
#: pipe) or ``auto`` (``shm`` when the platform supports it).
TRANSPORTS = ("auto", "shm", "pickle")

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
        config: the experiment configuration (carries the seed; the worker
            rebuilds ``FatTreeTopology(config.fattree_k)`` from it).
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
    and each pool worker via its batch loop -- so a job's result cannot
    depend on *where* it ran.  Every Polyraptor job counts its codec work in
    a fresh codec context of its own.
    """
    return run_transfers(
        job.protocol,
        job.config,
        list(job.transfers),
        topology=FatTreeTopology(job.config.fattree_k),
        polyraptor_config=job.polyraptor_config,
        network_config=job.network_config,
        fault_schedule=job.fault_schedule,
    )


# Executor profile -------------------------------------------------------------------


@dataclass
class ExecutorProfile:
    """Per-phase accounting for one ``execute_jobs`` call.

    ``bytes_shipped`` counts payload bytes that crossed the process pipe by
    pickle (job batches and results in ``pickle`` transport; only tiny
    segment descriptors in ``shm`` transport -- envelopes are estimated at a
    flat 64 bytes per message).  ``shm_bytes`` counts bytes written into
    shared-memory segments instead.  Wall-clock phases: ``pool_spawn_s``
    (parent-observed time until every worker reported ready -- includes the
    workers' imports; zero when the persistent pool was reused),
    ``worker_init_s`` (slowest worker's start-up after its imports, paid
    once per pool), ``serialize_s`` (packing on both sides), ``merge_s``
    (parent-side unpacking and in-order merge) and ``run_s`` (summed worker
    simulation time).
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
    shm_bytes: int = 0
    pool_spawn_s: float = 0.0
    worker_init_s: float = 0.0
    # Nothing is pre-warmed or shipped any more; the benchmark ledger still
    # reads these two, so they stay, pinned at zero.
    prewarm_s: float = 0.0
    plans_ship_s: float = 0.0
    serialize_s: float = 0.0
    dispatch_s: float = 0.0
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
# dicts, so they ship through shm/pickle unchanged); execute_jobs additionally
# accumulates them here -- mirroring the _last_profile pattern -- so the CLI
# can export every sweep of an invocation without threading telemetry through
# each scenario module's result type.  Only telemetry-carrying runs are
# appended: with telemetry off this list never grows.

_telemetry_records: list[TelemetryRecord] = []


def collected_telemetry() -> list[TelemetryRecord]:
    """Telemetry records accumulated by :func:`execute_jobs` since the last clear.

    In job order within each sweep and sweep order across sweeps -- i.e.
    byte-identical for every worker count, transport and chunk size.
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
        f"{profile.workers} workers ({profile.transport}"
        f"{', pool reused' if profile.pool_reused else ''}), "
        f"chunk={profile.chunk_size}  wall={profile.wall_s:.2f}s  "
        f"run={profile.run_s:.2f}s  serialize={profile.serialize_s * 1e3:.1f}ms  "
        f"merge={profile.merge_s * 1e3:.1f}ms  "
        f"shipped={profile.bytes_shipped}B  shm={profile.shm_bytes}B",
        file=sys.stderr,
        flush=True,
    )


# Process-wide executor defaults (installed by the CLI) ------------------------------

_default_transport: str = "auto"
_default_chunk: Optional[int] = None


def set_transport(transport: Optional[str]) -> str:
    """Install the process-wide default payload transport (``None`` = auto)."""
    global _default_transport
    transport = transport or "auto"
    if transport not in TRANSPORTS:
        raise ValueError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
    _default_transport = transport
    return _default_transport


def set_chunk_size(chunk: Optional[int]) -> Optional[int]:
    """Install the process-wide default batch size (``None`` = auto)."""
    global _default_chunk
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    _default_chunk = chunk
    return _default_chunk


def resolve_transport(transport: Optional[str] = None) -> str:
    """Resolve ``auto``/None to a concrete transport for this platform."""
    transport = transport or _default_transport
    if transport not in TRANSPORTS:
        raise ValueError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
    if transport == "auto":
        return "shm" if shm.shm_available() else "pickle"
    return transport


def _resolve_chunk(chunk: Optional[int], total: int, workers: int) -> int:
    """Default chunking: ~4 batches per worker bounds idle tails and IPC."""
    if chunk is None:
        chunk = _default_chunk
    if chunk is None:
        chunk = max(1, -(-total // (workers * 4)))
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    return chunk


# Worker pool ------------------------------------------------------------------------

#: Estimated pipe cost of a queue message envelope (accounting only).
_ENVELOPE_BYTES = 64


class WorkerCrashError(RuntimeError):
    """A worker process died without reporting a result."""


class WorkerJobError(RuntimeError):
    """A job raised inside a worker; carries the formatted remote traceback."""


def _dump_payload(obj, transport: str) -> tuple[tuple, int, int]:
    """Pack ``obj`` for the pipe: returns (payload, pipe_bytes, shm_bytes)."""
    if transport == "shm":
        slot, stats = shm.pack_object(obj)
        return ("shm", slot), _ENVELOPE_BYTES, stats.total_bytes
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return ("pickle", blob), _ENVELOPE_BYTES + len(blob), 0


def _load_payload(payload: tuple):
    """Unpack (and, for a segment, unlink) a payload from :func:`_dump_payload`."""
    kind, body = payload
    if kind == "shm":
        return shm.unpack_object(body)
    if kind == "pickle":
        return pickle.loads(body)
    raise ValueError(f"unknown payload kind {kind!r}")


def _discard_payload(payload: tuple) -> None:
    """Reap a payload that will never be consumed (teardown path)."""
    kind, body = payload
    if kind == "shm":
        shm.discard_segment(body)


def _worker_main(worker_id: int, tasks, results, transport: str) -> None:
    """Entry point of one persistent pool worker.

    Runs until a ``stop`` message arrives; every other message is a
    ``batch``.  The heavy imports were paid when this module loaded.
    """
    init_start = time.perf_counter()
    results.put(("ready", worker_id, time.perf_counter() - init_start))
    while True:
        message = tasks.get()
        kind = message[0]
        if kind == "stop":
            return
        if kind != "batch":  # pragma: no cover - protocol guard
            raise RuntimeError(f"worker {worker_id}: unknown message {kind!r}")
        batch_id, payload = message[1], message[2]
        try:
            jobs = _load_payload(payload)
            run_start = time.perf_counter()
            runs = [run_job(job) for job in jobs]
            run_s = time.perf_counter() - run_start
            pack_start = time.perf_counter()
            # Results are written in place into a fresh segment (pack_object
            # unlinks it itself if packing fails); the parent unlinks after
            # merging.
            out_payload, pipe_bytes, shm_bytes = _dump_payload(runs, transport)
            stats = {
                "run_s": run_s,
                "serialize_s": time.perf_counter() - pack_start,
                "pipe_bytes": pipe_bytes,
                "shm_bytes": shm_bytes,
            }
            results.put(("done", worker_id, batch_id, out_payload, stats))
        except BaseException:
            results.put(("error", worker_id, batch_id, traceback.format_exc()))


class WorkerPool:
    """A persistent pool of spawn-started, pre-warmed worker processes.

    Unlike ``multiprocessing.Pool`` the pool survives across sweeps: the
    module keeps one instance alive (see :func:`get_worker_pool`) so the
    spawn + import + kernel warm-up cost is paid once per process, not once
    per ``execute_jobs`` call.  Jobs are shipped in chunked batches over
    per-worker task queues with parent-side dynamic dispatch (a worker
    receives its next batch when it reports one done), and every payload
    travels by the pool's transport (``shm`` or ``pickle``).
    """

    def __init__(
        self,
        num_workers: int,
        start_method: str = DEFAULT_START_METHOD,
        transport: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be at least 1, got {num_workers}")
        self.num_workers = num_workers
        self.start_method = start_method
        self.transport = resolve_transport(transport)
        context = multiprocessing.get_context(start_method)
        self._results = context.Queue()
        self._tasks = [context.SimpleQueue() for _ in range(num_workers)]
        spawn_start = time.perf_counter()
        self._procs = [
            context.Process(
                target=_worker_main,
                args=(wid, self._tasks[wid], self._results, self.transport),
                daemon=True,
                name=f"repro-worker-{wid}",
            )
            for wid in range(num_workers)
        ]
        for proc in self._procs:
            proc.start()
        self.worker_init_s = 0.0
        for _ in range(num_workers):
            message = self._next_message()
            if message[0] != "ready":  # pragma: no cover - protocol guard
                raise RuntimeError(f"unexpected pool message {message[0]!r}")
            self.worker_init_s = max(self.worker_init_s, message[2])
        self.spawn_s = time.perf_counter() - spawn_start
        self._closed = False

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the pool's workers (stable for the pool's lifetime)."""
        return [proc.pid for proc in self._procs]

    def _next_message(self, poll_s: float = 1.0):
        """Next result-queue message, failing fast if a worker died."""
        while True:
            try:
                return self._results.get(timeout=poll_s)
            except queue.Empty:
                dead = [
                    (proc.name, proc.exitcode)
                    for proc in self._procs
                    if not proc.is_alive()
                ]
                if dead:
                    raise WorkerCrashError(
                        f"worker process(es) died: {dead}; pool must be restarted"
                    ) from None

    def run_jobs(
        self,
        jobs: Sequence[RunJob],
        chunk_size: int,
        progress: Optional[ProgressCallback],
        profile: ExecutorProfile,
    ) -> list[RunResult]:
        """Run ``jobs`` across the pool; results return in job order.

        Batches of ``chunk_size`` consecutive jobs are dispatched dynamically
        -- each worker gets a new batch as it finishes one -- and merged in
        submission order, so the output (and the order of ``progress``
        callbacks) is independent of scheduling.  On any worker error the
        in-flight segments are reaped before the exception propagates, so a
        failed sweep leaks no shared memory.
        """
        batches = [list(jobs[at:at + chunk_size]) for at in range(0, len(jobs), chunk_size)]
        starts = list(range(0, len(jobs), chunk_size))
        profile.num_batches = len(batches)
        in_flight: dict[int, tuple] = {}
        batch_results: dict[int, list[RunResult]] = {}
        next_batch = 0
        fired = 0  # progress callbacks fired (== merged job-order prefix)

        def dispatch(worker_id: int) -> None:
            nonlocal next_batch
            if next_batch >= len(batches):
                return
            pack_start = time.perf_counter()
            payload, pipe_bytes, shm_bytes = _dump_payload(
                batches[next_batch], self.transport
            )
            profile.serialize_s += time.perf_counter() - pack_start
            profile.bytes_shipped += pipe_bytes
            profile.shm_bytes += shm_bytes
            in_flight[next_batch] = payload
            self._tasks[worker_id].put(("batch", next_batch, payload))
            next_batch += 1

        dispatch_start = time.perf_counter()
        try:
            for worker_id in range(min(self.num_workers, len(batches))):
                dispatch(worker_id)
            while len(batch_results) < len(batches):
                message = self._next_message()
                kind = message[0]
                if kind == "done":
                    _, worker_id, batch_id, payload, stats = message
                    in_flight.pop(batch_id, None)
                    merge_start = time.perf_counter()
                    batch_results[batch_id] = _load_payload(payload)
                    profile.merge_s += time.perf_counter() - merge_start
                    profile.run_s += stats["run_s"]
                    profile.serialize_s += stats["serialize_s"]
                    profile.bytes_shipped += stats["pipe_bytes"]
                    profile.shm_bytes += stats["shm_bytes"]
                    dispatch(worker_id)
                    if progress is not None:
                        merge_start = time.perf_counter()
                        while fired < len(jobs):
                            batch_of = fired // chunk_size
                            if batch_of not in batch_results:
                                break
                            result = batch_results[batch_of][fired - starts[batch_of]]
                            progress(fired, len(jobs), jobs[fired], result)
                            fired += 1
                        profile.merge_s += time.perf_counter() - merge_start
                elif kind == "error":
                    _, worker_id, batch_id, remote_traceback = message
                    in_flight.pop(batch_id, None)
                    keys = [job.key for job in batches[batch_id]]
                    raise WorkerJobError(
                        f"worker {worker_id} failed on batch {batch_id} "
                        f"(job keys {keys}):\n{remote_traceback}"
                    )
                else:  # pragma: no cover - protocol guard
                    raise RuntimeError(f"unexpected pool message {kind!r}")
        except BaseException:
            self._reap_in_flight(in_flight)
            raise
        finally:
            profile.dispatch_s += time.perf_counter() - dispatch_start
        merge_start = time.perf_counter()
        merged = [run for batch_id in range(len(batches)) for run in batch_results[batch_id]]
        profile.merge_s += time.perf_counter() - merge_start
        return merged

    def _reap_in_flight(self, in_flight: dict[int, tuple]) -> None:
        """Settle every dispatched batch and free its segments (error path).

        Unlinking the input segments first makes a worker that has not
        attached yet fail fast instead of running a batch nobody will merge.
        A worker already mid-batch still posts its result segment when it
        finishes -- possibly long after the error that brought us here -- so
        wait for one report per outstanding batch rather than draining only
        what happens to be queued.
        """
        for payload in in_flight.values():
            _discard_payload(payload)
        outstanding = set(in_flight)
        while outstanding:
            try:
                message = self._next_message()
            except WorkerCrashError:
                return  # a dead worker reports nothing more; close() sweeps the queue
            if message[0] == "done":
                _discard_payload(message[3])
            if message[0] in ("done", "error"):
                outstanding.discard(message[2])

    def _discard_queued_results(self, wait_s: float = 0.0) -> None:
        """Free the segment of every result still queued: nobody will merge it."""
        while True:
            try:
                message = self._results.get(timeout=wait_s)
            except queue.Empty:
                return
            if message[0] == "done":
                _discard_payload(message[3])

    def close(self, force: bool = False, join_timeout_s: float = 5.0) -> None:
        """Stop every worker; ``force`` terminates instead of asking.

        Results a worker posts on its way out are freed, not leaked.  The
        queue is drained *while* the workers wind down: a worker cannot exit
        until the parent has read what it wrote.
        """
        if self._closed:
            return
        self._closed = True
        if not force:
            for tasks in self._tasks:
                try:
                    tasks.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover - broken pipe
                    pass
            deadline = time.monotonic() + join_timeout_s
            while any(proc.is_alive() for proc in self._procs) and time.monotonic() < deadline:
                self._discard_queued_results(wait_s=0.05)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=join_timeout_s)
        self._discard_queued_results()
        self._results.close()


_pool: Optional[WorkerPool] = None


def get_worker_pool(
    num_workers: int,
    start_method: str = DEFAULT_START_METHOD,
    transport: Optional[str] = None,
) -> tuple[WorkerPool, bool]:
    """The process-wide persistent pool; returns ``(pool, was_reused)``.

    A pool is reused while the requested shape (worker count, start method,
    resolved transport) matches; a mismatch shuts the old pool down and
    spawns a fresh one.  The pool is torn down automatically at interpreter
    exit.
    """
    global _pool
    transport = resolve_transport(transport)
    if _pool is not None and not _pool._closed:
        if (
            _pool.num_workers == num_workers
            and _pool.start_method == start_method
            and _pool.transport == transport
            and all(proc.is_alive() for proc in _pool._procs)
        ):
            return _pool, True
        shutdown_worker_pool()
    _pool = WorkerPool(num_workers, start_method=start_method, transport=transport)
    return _pool, False


def warm_worker_pool(
    num_workers: int,
    start_method: str = DEFAULT_START_METHOD,
    transport: Optional[str] = None,
) -> WorkerPool:
    """Ensure the persistent pool exists and is warm (benchmark helper)."""
    pool, _ = get_worker_pool(num_workers, start_method=start_method, transport=transport)
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
        start_method: multiprocessing start method; ``spawn`` by default.
        progress: optional per-job callback ``(index, total, job, result)``,
            invoked in job order as results arrive (the CLI wires
            :func:`log_progress` here); it never affects results.
        transport: payload transport (``"shm"``/``"pickle"``/``"auto"``);
            ``None`` uses the process default (see :func:`set_transport`).
            Results are byte-identical across transports.
        chunk: jobs per dispatched batch; ``None`` uses the process default
            or, failing that, ~4 batches per worker.  Affects scheduling
            granularity only, never results.
        label: a short sweep name recorded in the executor profile and
            progress output.

    Returns:
        ``[run_job(job) for job in jobs]`` -- the merge is a stable,
        order-preserving map, so callers can zip results with their job list
        no matter how many workers ran.

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
    pool, reused = get_worker_pool(
        num_workers, start_method=start_method, transport=transport
    )
    profile.transport = pool.transport
    profile.workers = pool.num_workers
    profile.pool_reused = reused
    profile.pool_spawn_s = 0.0 if reused else pool.spawn_s
    profile.worker_init_s = pool.worker_init_s
    profile.chunk_size = _resolve_chunk(chunk, total, pool.num_workers)
    try:
        results = pool.run_jobs(jobs, profile.chunk_size, progress, profile)
    except (WorkerCrashError, WorkerJobError):
        # The pool may hold poisoned queues or dead workers; restart fresh
        # on the next sweep rather than risking a hang.
        shutdown_worker_pool()
        raise
    profile.wall_s = time.perf_counter() - wall_start
    _last_profile = profile
    _accumulate_telemetry(label, jobs, results)
    if progress is log_progress:
        log_exec_profile(profile)
    return results
