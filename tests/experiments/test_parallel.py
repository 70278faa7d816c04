"""Determinism tests for the sharded parallel experiment executor.

The contract under test: ``execute_jobs(jobs, num_workers=N)`` returns the
same results, in the same order, for every N -- including the codec's block
and basis-lookup counters, because every job counts them in a fresh context
of its own while the per-K' basis it reads is built lazily, once per
process.  Every batch of jobs and every result list crosses the pipe as a
pickle under any start method, so the sharded cases also prove that every
job artifact survives pickling.  ``TestPersistentPool`` covers the pool's life
cycle: reuse across sweeps, a job that raises, a worker that dies.
``TestStartMethods`` runs the same jobs through forked and spawned pools:
a worker forked from a parent whose caches are warm must report what a fresh
interpreter reports.
"""

from __future__ import annotations

import gc
import glob
import json
import multiprocessing
import os
import pickle
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.figure1a import run_figure1a
from repro.experiments.figure1b import run_figure1b
from repro.experiments import parallel
from repro.experiments.parallel import (
    RunJob,
    WorkerJobError,
    WorkerPool,
    available_cpus,
    execute_jobs,
    get_worker_pool,
    last_profile,
    log_progress,
    resolve_jobs,
    run_job,
    set_progress_logger,
    shutdown_worker_pool,
    warm_worker_pool,
)
from repro.experiments.report import merge_codec_stats
from repro.faults.schedule import FaultSchedule, link_loss
from repro.network.routing import stable_hash
from repro.network.topology import FatTreeTopology, shared_fattree
from repro.rq.backend import generator_basis
from repro.utils.units import KILOBYTE
from repro.workloads.spec import TransferKind, TransferSpec

PAYLOAD_CONFIG = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=4,
    object_bytes=64 * KILOBYTE,
    background_fraction=0.0,
    max_sim_time_s=30.0,
    polyraptor=PolyraptorConfig(carry_payload=True),
)

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform")

#: Both start methods; ``fork`` is skipped where the platform lacks it.
START_METHODS = [pytest.param("fork", marks=requires_fork), "spawn"]


def _payload_jobs(seeds=(1, 2, 3, 4)) -> list[RunJob]:
    """One payload-carrying Polyraptor job per seed (codec genuinely runs)."""
    jobs = []
    for seed in seeds:
        config = PAYLOAD_CONFIG.with_seed(seed)
        transfers = (
            TransferSpec(transfer_id=1, kind=TransferKind.UNICAST, client="h0",
                         peers=("h8",), size_bytes=64_000, start_time=0.0),
            TransferSpec(transfer_id=2, kind=TransferKind.FETCH, client="h2",
                         peers=("h10", "h14"), size_bytes=64_000, start_time=0.0),
        )
        jobs.append(RunJob(key=seed, protocol=Protocol.POLYRAPTOR,
                           config=config, transfers=transfers))
    return jobs


def _transfer_metrics(run):
    """The per-transfer facts the figures are computed from."""
    return [
        (r.transfer_id, r.label, r.transfer_bytes, r.start_time, r.completion_time)
        for r in run.registry.records
    ]


class TestRunJob:
    def test_jobs_are_picklable(self):
        job = _payload_jobs()[0]
        clone = pickle.loads(pickle.dumps(job))
        assert clone.key == job.key
        assert clone.config == job.config
        assert clone.transfers == job.transfers

    def test_run_results_are_picklable(self):
        run = run_job(_payload_jobs(seeds=(1,))[0])
        clone = pickle.loads(pickle.dumps(run))
        assert _transfer_metrics(clone) == _transfer_metrics(run)
        assert clone.codec_stats == run.codec_stats


class TestShardedDeterminism:
    """--jobs N must be indistinguishable from --jobs 1 in every reported number."""

    @pytest.fixture(scope="class")
    def sequential_and_sharded(self):
        jobs = _payload_jobs()
        return jobs, execute_jobs(jobs, num_workers=1), execute_jobs(jobs, num_workers=4)

    def test_results_arrive_in_job_order(self, sequential_and_sharded):
        jobs, sequential, sharded = sequential_and_sharded
        assert len(sequential) == len(sharded) == len(jobs)

    def test_per_transfer_metrics_identical(self, sequential_and_sharded):
        _, sequential, sharded = sequential_and_sharded
        for seq_run, par_run in zip(sequential, sharded):
            assert _transfer_metrics(seq_run) == _transfer_metrics(par_run)

    def test_fabric_counters_identical(self, sequential_and_sharded):
        _, sequential, sharded = sequential_and_sharded
        for seq_run, par_run in zip(sequential, sharded):
            assert seq_run.events_processed == par_run.events_processed
            assert seq_run.trimmed_packets == par_run.trimmed_packets
            assert seq_run.dropped_packets == par_run.dropped_packets
            assert seq_run.sim_time_s == par_run.sim_time_s

    def test_per_run_codec_stats_identical(self, sequential_and_sharded):
        _, sequential, sharded = sequential_and_sharded
        for seq_run, par_run in zip(sequential, sharded):
            assert seq_run.codec_stats == par_run.codec_stats

    def test_merged_codec_stats_identical(self, sequential_and_sharded):
        _, sequential, sharded = sequential_and_sharded
        merged_seq = merge_codec_stats([run.codec_stats for run in sequential])
        merged_par = merge_codec_stats([run.codec_stats for run in sharded])
        assert merged_seq == merged_par
        assert merged_seq["shards"] == 4
        assert merged_seq["plan_cache"]["hits"] > 0

    def test_everything_completed(self, sequential_and_sharded):
        _, sequential, _ = sequential_and_sharded
        for run in sequential:
            assert run.completion_fraction == 1.0


def _two_k_lossy_jobs() -> list[RunJob]:
    """Payload-carrying jobs over two block sizes, on a fabric that loses 1 %.

    The loss makes every block decode through the codec, and the two object
    sizes give two distinct K' per run, so each run looks up two bases.
    """
    topology = FatTreeTopology(4)
    lossy = FaultSchedule.ordered(
        [link_loss(0.0, a, b, 0.01, cause="gray") for a, b in sorted(topology.graph.edges)])
    transfers = (
        TransferSpec(transfer_id=1, kind=TransferKind.UNICAST, client="h0",
                     peers=("h8",), size_bytes=64_000, start_time=0.0),
        TransferSpec(transfer_id=2, kind=TransferKind.FETCH, client="h2",
                     peers=("h10", "h14"), size_bytes=20_000, start_time=0.0),
    )
    return [RunJob(key=seed, protocol=Protocol.POLYRAPTOR, config=PAYLOAD_CONFIG.with_seed(seed),
                   transfers=transfers, fault_schedule=lossy)
            for seed in (1, 2, 3)]


class TestPerProcessBasisDeterminism:
    """Lazily built per-process bases leave no trace in any reported number.

    The parent runs the jobs inline first, so its bases are warm: a spawned
    worker starts cold, a forked one inherits them.
    """

    @pytest.fixture(scope="class", params=START_METHODS)
    def runs_and_messages(self, request):
        jobs = _two_k_lossy_jobs()
        sequential = execute_jobs(jobs, num_workers=1)
        shutdown_worker_pool()
        pool = warm_worker_pool(2, start_method=request.param)
        submitted: list = []
        submit = pool.executor.submit

        def recording_submit(fn, *args):
            submitted.append(fn.__name__)
            return submit(fn, *args)

        pool.executor.submit = recording_submit
        sharded = execute_jobs(jobs, num_workers=2, start_method=request.param)
        shutdown_worker_pool()
        return sequential, sharded, submitted

    def test_canonical_dicts_identical(self, runs_and_messages):
        sequential, sharded, _ = runs_and_messages
        assert ([json.dumps(run.canonical_dict(), sort_keys=True, default=repr) for run in sequential]
                == [json.dumps(run.canonical_dict(), sort_keys=True, default=repr) for run in sharded])

    def test_block_and_lookup_counters_identical(self, runs_and_messages):
        sequential, sharded, _ = runs_and_messages
        assert [run.codec_stats for run in sequential] == [run.codec_stats for run in sharded]
        for run in sequential:
            assert run.completion_fraction == 1.0
            assert run.codec_stats["blocks_decoded"] > 0
            # One miss per distinct K' in each run's own context.
            assert run.codec_stats["plan_cache"]["misses"] == 2

    def test_pool_is_sent_nothing_but_job_batches(self, runs_and_messages):
        _, _, submitted = runs_and_messages
        assert submitted and set(submitted) == {"_run_batch"}


class TestFigureSweepDeterminism:
    def test_figure1a_multi_seed_sweep_matches_sequential(self):
        config = ExperimentConfig(
            fattree_k=4, num_foreground_transfers=3, object_bytes=48 * KILOBYTE,
            background_fraction=0.0, max_sim_time_s=30.0,
            polyraptor=PolyraptorConfig(carry_payload=True),
        )
        sequential = run_figure1a(config, replica_counts=(1,), num_seeds=2, jobs=1)
        sharded = run_figure1a(config, replica_counts=(1,), num_seeds=2, jobs=4)
        assert sequential.series == sharded.series
        assert sequential.summaries == sharded.summaries
        assert sequential.codec_stats == sharded.codec_stats
        label = "1 Replica RQ"
        assert sequential.codec_stats[label]["shards"] == 2

    def test_figure1b_matches_for_all_worker_counts(self):
        config = PAYLOAD_CONFIG.with_seed(1)
        results = [run_figure1b(config, sender_counts=(3,), num_seeds=2, jobs=jobs)
                   for jobs in (1, 2, 4)]
        for other in results[1:]:
            assert other.series == results[0].series
            assert other.summaries == results[0].summaries
            assert other.codec_stats == results[0].codec_stats


def _bad_job() -> RunJob:
    """A host that does not exist in the k=4 fabric: the run raises at once."""
    return RunJob(
        key="bad", protocol=Protocol.POLYRAPTOR, config=PAYLOAD_CONFIG.with_seed(9),
        transfers=(TransferSpec(transfer_id=1, kind=TransferKind.UNICAST, client="h999",
                                peers=("h0",), size_bytes=48_000, start_time=0.0),),
    )


def _fingerprints(runs) -> list[str]:
    return [json.dumps(run.canonical_dict(), sort_keys=True, default=repr) for run in runs]


class TestPersistentPool:
    """One stdlib process pool, kept across sweeps and rebuilt only when it must be."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        shutdown_worker_pool()
        yield
        shutdown_worker_pool()

    @pytest.fixture(scope="class")
    def baseline(self):
        jobs = _payload_jobs()
        return jobs, _fingerprints(execute_jobs(jobs, num_workers=1))

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("transport", [None, "shm", "pickle"])
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_sharded_results_match_sequential(self, baseline, start_method, workers, transport):
        # ``transport`` is still accepted (the perf harness passes "shm") and
        # changes nothing: every batch is pickled.
        jobs, expected = baseline
        runs = execute_jobs(jobs, num_workers=workers, start_method=start_method,
                            transport=transport)
        assert _fingerprints(runs) == expected
        assert get_worker_pool(workers, start_method=start_method)[1]  # the sweep ran on it
        assert last_profile().transport == "pickle"
        assert last_profile().bytes_shipped > 0
        assert last_profile().shm_bytes == 0

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunk_size_never_affects_results(self, baseline, chunk):
        jobs, expected = baseline
        assert _fingerprints(execute_jobs(jobs, num_workers=2, chunk=chunk)) == expected
        assert last_profile().num_batches == -(-len(jobs) // chunk)

    def test_pool_is_reused_across_sweeps(self):
        jobs = _payload_jobs(seeds=(1, 2))
        execute_jobs(jobs, num_workers=2)
        pool, reused = get_worker_pool(2)
        assert reused
        execute_jobs(jobs, num_workers=2)
        profile = last_profile()
        assert profile.pool_reused and profile.pool_spawn_s == 0.0
        assert get_worker_pool(2) == (pool, True)

    def test_first_sweep_pays_spawn_and_records_worker_start_up(self):
        execute_jobs(_payload_jobs(seeds=(1, 2)), num_workers=2)
        profile = last_profile()
        pool, _ = get_worker_pool(2)
        assert not profile.pool_reused
        assert profile.pool_spawn_s == pool.spawn_s > 0.0
        # The slowest worker's start-up CPU: a fresh interpreter's imports
        # when spawned, only the few milliseconds after the fork when forked.
        assert profile.worker_init_s == pool.worker_init_s > 0.0

    def test_shutdown_is_idempotent_and_the_next_sweep_respawns(self):
        old = warm_worker_pool(2)
        shutdown_worker_pool()
        shutdown_worker_pool()
        with pytest.raises(RuntimeError):
            old.executor.submit(os.getpid)
        new, reused = get_worker_pool(2)
        assert not reused and new is not old

    def test_pool_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="at least 1"):
            WorkerPool(0)

    def test_shape_change_restarts_pool(self):
        old = warm_worker_pool(2)
        new, reused = get_worker_pool(3)
        assert not reused and new is not old and new.num_workers == 3

    def test_job_error_names_the_batch_and_leaves_the_pool_usable(self):
        jobs = _payload_jobs(seeds=(1, 2))
        pool = warm_worker_pool(2)
        with pytest.raises(WorkerJobError, match="bad") as raised:
            execute_jobs(jobs + [_bad_job()], num_workers=2, chunk=1)
        assert raised.value.__cause__ is not None  # the worker's own exception
        runs = execute_jobs(jobs, num_workers=2)
        assert get_worker_pool(2) == (pool, True)
        assert _fingerprints(runs) == _fingerprints(execute_jobs(jobs, num_workers=1))

    def test_failure_after_a_finished_batch_names_only_the_failing_one(self):
        # One worker runs a three-job batch while its sibling fails at once on
        # the next; the finished batch is merged, the failing one is named.
        jobs = _payload_jobs(seeds=(1, 2, 3))
        pool = warm_worker_pool(2)
        with pytest.raises(WorkerJobError, match=r"batch 1 \(job keys \['bad'\]\)"):
            execute_jobs(jobs + [_bad_job()], num_workers=2, chunk=3)
        assert get_worker_pool(2) == (pool, True)
        assert len(execute_jobs(jobs, num_workers=2)) == 3

    def test_error_in_the_first_batch_stops_the_sweep_before_any_progress(self):
        jobs = _payload_jobs()
        pool = warm_worker_pool(2)
        calls = []
        with pytest.raises(WorkerJobError, match=r"batch 0 \(job keys \['bad'\]\)"):
            execute_jobs([_bad_job()] + jobs, num_workers=2, chunk=1,
                         progress=lambda i, n, job, run: calls.append(i))
        assert calls == []
        # Batches cancelled or abandoned by the failed sweep leave nothing
        # queued that could leak into the next one.
        runs = execute_jobs(jobs, num_workers=2)
        assert get_worker_pool(2) == (pool, True)
        assert [run.completion_fraction for run in runs] == [1.0] * len(jobs)

    def test_benchmark_call_shape_uses_no_shared_memory(self):
        # What the perf harness's sweep workload does, including its
        # /dev/shm leak gate.
        before = set(glob.glob("/dev/shm/rpshm-*"))
        pool = warm_worker_pool(2, transport="shm")
        execute_jobs(_payload_jobs(seeds=(1, 2)), num_workers=2, transport="shm",
                     label="sweep")
        profile = last_profile()
        assert profile.pool_reused and profile.workers == pool.num_workers == 2
        assert (profile.shm_bytes, profile.prewarm_s, profile.plans_ship_s) == (0, 0.0, 0.0)
        shutdown_worker_pool()
        assert set(glob.glob("/dev/shm/rpshm-*")) == before

    def test_dead_worker_fails_the_sweep_and_the_next_one_respawns(self):
        jobs = _payload_jobs(seeds=(1, 2))
        pool = warm_worker_pool(2)
        with pytest.raises(BrokenProcessPool):
            pool.executor.submit(os._exit, 1).result(timeout=60)
        with pytest.raises(BrokenProcessPool):
            execute_jobs(jobs, num_workers=2)
        fresh, reused = get_worker_pool(2)
        assert not reused and fresh is not pool
        assert len(execute_jobs(jobs, num_workers=2)) == 2

    def test_sharded_figure_records_profile(self):
        result = run_figure1a(PAYLOAD_CONFIG, replica_counts=(1,), num_seeds=2, jobs=2)
        assert result.exec_profile["workers"] == 2
        assert result.exec_profile["jobs_total"] == 4
        assert result.exec_profile["transport"] == "pickle"


def _tcp_job(seed: int) -> RunJob:
    """The payload job's transfers over TCP, whose fabric hashes flows onto paths."""
    return replace(_payload_jobs(seeds=(seed,))[0], protocol=Protocol.TCP)


class TestStartMethods:
    """A forked worker inherits the parent's warm state; none of it may reach a result."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        shutdown_worker_pool()
        yield
        shutdown_worker_pool()

    @requires_fork
    def test_fork_from_a_warm_parent_matches_spawn_and_inline(self):
        # A faulted job, a payload job and a TCP job (flow-hashed ECMP) run
        # inline first: they fill the shared fat-tree memo, the
        # generator-basis and stable-hash caches and advance the packet-id
        # counter -- all of which a forked worker inherits and a spawned one
        # starts without.
        for job in (_two_k_lossy_jobs()[0], *_payload_jobs(seeds=(5,)), _tcp_job(5)):
            run_job(job)
        assert shared_fattree.cache_info().currsize > 0
        assert generator_basis.cache_info().currsize > 0
        assert stable_hash.cache_info().currsize > 0
        jobs = _two_k_lossy_jobs() + _payload_jobs(seeds=(1, 2)) + [_tcp_job(1)]
        runs = {}
        for method in ("fork", "spawn"):
            shutdown_worker_pool()
            runs[method] = execute_jobs(jobs, num_workers=2, start_method=method)
            assert not last_profile().pool_reused
        runs["inline"] = execute_jobs(jobs, num_workers=1)
        prints = {method: _fingerprints(results) for method, results in runs.items()}
        assert prints["fork"] == prints["spawn"] == prints["inline"]
        # The fingerprints omit the codec's lookup counters; a cache miss
        # counted process-wide instead of per job would show here.
        stats = {method: [run.codec_stats for run in results] for method, results in runs.items()}
        assert stats["fork"] == stats["spawn"] == stats["inline"]

    @requires_fork
    def test_the_freeze_is_left_in_the_workers_not_the_parent(self):
        pool = warm_worker_pool(2, start_method="fork")
        assert gc.get_freeze_count() == 0
        assert pool.executor.submit(gc.get_freeze_count).result(timeout=60) > 0


class TestMergeCodecStats:
    def test_no_stats_merges_to_none(self):
        assert merge_codec_stats([None, None]) is None
        assert merge_codec_stats([]) is None

    def test_counters_sum_and_hit_rate_recomputes(self):
        one = {"blocks_encoded": 2, "blocks_decoded": 1,
               "plan_cache": {"hits": 3, "misses": 1, "evictions": 0, "hit_rate": 0.75}}
        two = {"blocks_encoded": 4, "blocks_decoded": 0,
               "plan_cache": {"hits": 1, "misses": 3, "evictions": 2, "hit_rate": 0.25}}
        merged = merge_codec_stats([one, None, two])
        assert merged["blocks_encoded"] == 6
        assert merged["blocks_decoded"] == 1
        assert merged["plan_cache"]["hits"] == 4
        assert merged["plan_cache"]["misses"] == 4
        assert merged["plan_cache"]["evictions"] == 2
        assert merged["plan_cache"]["hit_rate"] == pytest.approx(0.5)
        assert merged["shards"] == 2


class TestResolveJobs:
    def test_ints_and_decimal_strings_pass_through(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs("5") == 5

    def test_auto_resolves_to_available_cpus(self):
        # Affinity-aware, not raw cpu_count: a taskset/cgroup-limited runner
        # must not spawn more workers than it can actually schedule.
        assert resolve_jobs("auto") == available_cpus()
        assert resolve_jobs(" AUTO ") == resolve_jobs("auto")

    def test_available_cpus_respects_affinity(self):
        import os

        if hasattr(os, "sched_getaffinity"):
            assert available_cpus() == max(1, len(os.sched_getaffinity(0)))
        else:  # pragma: no cover - non-Linux
            assert available_cpus() == max(1, os.cpu_count() or 1)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with pytest.raises(ValueError):
            resolve_jobs("many")


class TestProgressLogging:
    def test_progress_fires_once_per_job_in_order(self):
        jobs = _payload_jobs(seeds=(1, 2))
        calls = []
        execute_jobs(jobs, num_workers=1,
                     progress=lambda i, n, job, run: calls.append((i, n, job.key)))
        assert calls == [(0, 2, 1), (1, 2, 2)]

    def test_default_progress_logger_is_consulted(self):
        jobs = _payload_jobs(seeds=(1,))
        calls = []
        set_progress_logger(lambda i, n, job, run: calls.append(i))
        try:
            execute_jobs(jobs, num_workers=1)
        finally:
            set_progress_logger(None)
        assert calls == [0]

    def test_progress_fires_for_sharded_runs(self):
        jobs = _payload_jobs(seeds=(1, 2, 3))
        calls = []
        execute_jobs(jobs, num_workers=2,
                     progress=lambda i, n, job, run: calls.append(i))
        assert calls == [0, 1, 2]

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_progress_follows_job_order_across_batches(self, chunk):
        jobs = _payload_jobs(seeds=(1, 2, 3))
        calls = []
        execute_jobs(jobs, num_workers=2, chunk=chunk,
                     progress=lambda i, n, job, run: calls.append((i, n, job.key)))
        assert calls == [(0, 3, 1), (1, 3, 2), (2, 3, 3)]

    def test_log_progress_adds_one_sweep_summary_line(self, capsys):
        execute_jobs(_payload_jobs(seeds=(1, 2)), num_workers=2, progress=log_progress,
                     label="unit")
        lines = capsys.readouterr().err.splitlines()
        assert [line.split("  ")[0] for line in lines[:2]] == [
            "[repro] job 1/2 done", "[repro] job 2/2 done"]
        assert len(lines) == 3 and lines[2].startswith("[repro] sweep unit: 2 jobs, 2 workers")


class TestExecutorProfile:
    def test_sequential_run_records_inline_profile(self):
        jobs = _payload_jobs(seeds=(1,))
        execute_jobs(jobs, num_workers=1, label="unit")
        profile = last_profile()
        assert profile is not None
        assert profile.transport == "inline"
        assert profile.label == "unit"
        assert profile.jobs_total == 1
        assert profile.bytes_shipped == 0
        assert profile.run_s > 0
        assert profile.wall_s >= profile.run_s

    def test_profile_round_trips_through_as_dict(self):
        jobs = _payload_jobs(seeds=(1,))
        execute_jobs(jobs, num_workers=1)
        snapshot = last_profile().as_dict()
        for key in ("transport", "workers", "jobs_total", "bytes_shipped",
                    "shm_bytes", "prewarm_s", "pool_spawn_s", "worker_init_s",
                    "plans_ship_s", "serialize_s", "merge_s", "run_s", "wall_s",
                    "cpu_count"):
            assert key in snapshot

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fields_the_benchmark_ledger_reads_stay_zero(self, workers):
        # Nothing is pre-warmed or shipped; the two fields remain for readers.
        execute_jobs(_payload_jobs(seeds=(1, 2)), num_workers=workers)
        assert (last_profile().prewarm_s, last_profile().plans_ship_s) == (0.0, 0.0)

    def test_default_chunk_gives_about_four_batches_per_worker(self):
        assert parallel._resolve_chunk(None, 16, 2) == 2
        assert parallel._resolve_chunk(None, 17, 2) == 3
        assert parallel._resolve_chunk(None, 3, 4) == 1
        assert parallel._resolve_chunk(5, 3, 4) == 5

    def test_chunk_below_one_rejected(self):
        with pytest.raises(ValueError, match="chunk must be at least 1"):
            parallel._resolve_chunk(0, 4, 2)


    def test_log_exec_profile_prints_one_stderr_line(self, capsys):
        execute_jobs(_payload_jobs(seeds=(1,)), num_workers=1, label="unit")
        parallel.log_exec_profile(last_profile())
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("[repro] sweep unit: 1 jobs, 1 workers, chunk=1")
        assert "shipped=0B" in lines[0]

class TestCliJobs:
    def test_jobs_and_seeds_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["figure1a", "--jobs", "4", "--seeds", "2"])
        assert args.jobs == 4
        assert args.seeds == 2

    def test_jobs_auto_parses_to_available_cpus(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["figure1a", "--jobs", "auto"])
        assert args.jobs == available_cpus()

    @pytest.mark.parametrize("flag", [
        ["--kernel", "numpy"], ["--plan-cache"], ["--shm"], ["--no-shm"], ["--chunk", "3"],
    ])
    def test_removed_codec_and_executor_flags_are_rejected(self, flag):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1a", *flag])

    def test_jobs_garbage_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1a", "--jobs", "lots"])

    def test_jobs_defaults_to_sequential(self):
        from repro.cli import build_parser

        for command in ("figure1a", "figure1b", "figure1c", "ablations",
                        "hotspot", "mix", "resilience", "all"):
            args = build_parser().parse_args([command])
            assert args.jobs == 1
            assert args.progress is False

    def test_seeds_only_accepted_by_multi_seed_sweeps(self):
        from repro.cli import build_parser

        for command in ("figure1a", "figure1b", "figure1c", "resilience", "all"):
            assert build_parser().parse_args([command]).seeds is None
        for command in ("ablations", "hotspot", "mix"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--seeds", "2"])

    def test_resilience_intensities_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["resilience", "--intensities", "0", "0.5", "1"])
        assert args.intensities == [0.0, 0.5, 1.0]
