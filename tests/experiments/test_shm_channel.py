"""Tests for the shared-memory transport and the persistent worker pool.

Two contracts:

* the shm channel is a faithful, leak-free serialisation path -- pack/unpack
  equals a pickle round trip, segments are always closed and unlinked, on
  success and on every failure path (corrupt header, worker exception);
* the persistent pool reuses its worker processes across sweeps and keeps
  results byte-identical to the sequential path for every worker count,
  transport and chunk size.
"""

from __future__ import annotations

import glob
import json
import pickle

import numpy as np
import pytest

from repro.core.config import PolyraptorConfig
from repro.experiments import parallel, shm
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import (
    RunJob,
    WorkerJobError,
    execute_jobs,
    get_worker_pool,
    last_profile,
    shutdown_worker_pool,
)
from repro.experiments.shm import (
    ShmSlot,
    ShmTransportError,
    discard_segment,
    pack_object,
    shm_available,
    unpack_object,
)
from repro.utils.units import KILOBYTE
from repro.workloads.spec import TransferKind, TransferSpec

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable on this platform"
)


def _shm_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{shm.SHM_NAME_PREFIX}*")


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    """Every test must leave /dev/shm exactly as it found it."""
    before = set(_shm_segments())
    yield
    shutdown_worker_pool()
    leaked = set(_shm_segments()) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


PAYLOAD_CONFIG = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=3,
    object_bytes=48 * KILOBYTE,
    background_fraction=0.0,
    max_sim_time_s=30.0,
    polyraptor=PolyraptorConfig(carry_payload=True),
)


def _payload_jobs(seeds=(1, 2, 3, 4)) -> list[RunJob]:
    jobs = []
    for seed in seeds:
        config = PAYLOAD_CONFIG.with_seed(seed)
        transfers = (
            TransferSpec(transfer_id=1, kind=TransferKind.UNICAST, client="h0",
                         peers=("h8",), size_bytes=48_000, start_time=0.0),
            TransferSpec(transfer_id=2, kind=TransferKind.FETCH, client="h2",
                         peers=("h10", "h14"), size_bytes=48_000, start_time=0.0),
        )
        jobs.append(RunJob(key=seed, protocol=Protocol.POLYRAPTOR,
                           config=config, transfers=transfers))
    return jobs


def _bad_job() -> RunJob:
    """A host that does not exist in the k=4 fabric: the worker's topology
    lookup raises mid-batch, exercising the executor's reap path."""
    return RunJob(
        key="bad", protocol=Protocol.POLYRAPTOR,
        config=PAYLOAD_CONFIG.with_seed(9),
        transfers=(TransferSpec(transfer_id=1, kind=TransferKind.UNICAST,
                                client="h999", peers=("h0",),
                                size_bytes=48_000, start_time=0.0),),
    )


def _fingerprints(runs) -> list[str]:
    """Canonical byte-comparable serialisation of each run (order preserved)."""
    return [json.dumps(run.canonical_dict(), sort_keys=True, default=repr)
            for run in runs]


class TestShmRoundTrip:
    def test_plain_objects_round_trip(self):
        payload = {"alpha": [1, 2, 3], "beta": ("x", 4.5), "gamma": None}
        slot, stats = pack_object(payload)
        assert unpack_object(slot) == payload
        assert stats.total_bytes > 0
        assert not _shm_segments()

    def test_ndarrays_round_trip_out_of_band(self):
        arrays = [np.arange(4096, dtype=np.uint8).reshape(16, 256),
                  np.linspace(0.0, 1.0, 513)]
        slot, stats = pack_object(arrays)
        clone = unpack_object(slot)
        for original, copy in zip(arrays, clone):
            np.testing.assert_array_equal(original, copy)
        # Protocol-5 out-of-band extraction: the planes' bytes must live
        # outside the pickle stream, not embedded in it.
        assert stats.buffer_bytes >= arrays[0].nbytes
        assert stats.stream_bytes < arrays[0].nbytes

    def test_round_trip_matches_pickle_path(self):
        run = execute_jobs(_payload_jobs(seeds=(1,)), num_workers=1)[0]
        slot, _ = pack_object(run)
        via_shm = unpack_object(slot)
        via_pickle = pickle.loads(pickle.dumps(run))
        assert _fingerprints([via_shm]) == _fingerprints([via_pickle])

    def test_unpacked_copies_outlive_the_segment(self):
        plane = np.arange(2048, dtype=np.uint8)
        slot, _ = pack_object({"plane": plane})
        clone = unpack_object(slot)  # segment unlinked
        assert not _shm_segments()
        clone["plane"][:] ^= 0xFF  # writable, private memory
        np.testing.assert_array_equal(clone["plane"], plane ^ 0xFF)


class TestShmFailurePaths:
    def test_missing_segment_raises(self):
        with pytest.raises(ShmTransportError, match="gone"):
            unpack_object(ShmSlot(name=f"{shm.SHM_NAME_PREFIX}missing", size=64))

    def test_corrupt_magic_raises_and_segment_is_reaped(self):
        slot, _ = pack_object({"x": 1})
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=slot.name)
        segment.buf[:4] = b"XXXX"
        segment.close()
        with pytest.raises(ShmTransportError, match="bad magic"):
            unpack_object(slot)
        # The consumer unlinks even when the payload is corrupt -- a poisoned
        # result must not leak its segment.
        assert not _shm_segments()

    def test_discard_segment_reaps_and_reports_absence(self):
        slot, _ = pack_object([1])
        assert discard_segment(slot) is True
        assert discard_segment(slot) is False
        assert not _shm_segments()

    def test_worker_exception_propagates_and_leaks_nothing(self):
        jobs = _payload_jobs(seeds=(1, 2))
        with pytest.raises(WorkerJobError, match="bad"):
            execute_jobs(jobs + [_bad_job()], num_workers=2, transport="shm", chunk=1)
        # The autouse fixture asserts no /dev/shm leak after pool teardown.

    def test_sibling_still_mid_batch_when_a_job_fails_leaks_nothing(self):
        # Dispatched side by side: one worker fails at once on ``bad`` while
        # its sibling is still running a batch whose result segment it will
        # post only *after* the parent has seen the error.  The executor has
        # to settle that batch before re-raising, not just drain the queue.
        with pytest.raises(WorkerJobError, match="bad"):
            execute_jobs(_payload_jobs(seeds=(1, 2, 3)) + [_bad_job()],
                         num_workers=2, transport="shm", chunk=3)
        assert not _shm_segments()

    def test_close_frees_results_nobody_merged(self):
        pool, _ = get_worker_pool(2, transport="shm")
        payload, _, _ = parallel._dump_payload(_payload_jobs(seeds=(1,)), "shm")
        pool._tasks[0].put(("batch", 0, payload))  # dispatched, never collected
        shutdown_worker_pool()
        assert not _shm_segments()


class TestPersistentPool:
    def test_pool_is_reused_across_sweeps(self):
        jobs = _payload_jobs(seeds=(1, 2))
        execute_jobs(jobs, num_workers=2, transport="shm")
        pool, reused = get_worker_pool(2, transport="shm")
        pids = pool.worker_pids
        assert reused
        execute_jobs(jobs, num_workers=2, transport="shm")
        profile = last_profile()
        assert profile.pool_reused
        assert profile.pool_spawn_s == 0.0
        pool, reused = get_worker_pool(2, transport="shm")
        assert reused and pool.worker_pids == pids

    def test_shape_change_restarts_pool(self):
        jobs = _payload_jobs(seeds=(1,))
        execute_jobs(jobs + _payload_jobs(seeds=(2,)), num_workers=2, transport="shm")
        old = get_worker_pool(2, transport="shm")[0].worker_pids
        execute_jobs(jobs + _payload_jobs(seeds=(2,)), num_workers=3, transport="shm")
        new = get_worker_pool(3, transport="shm")[0].worker_pids
        assert len(new) == 3
        assert set(new) != set(old)

    def test_shm_ships_an_order_of_magnitude_fewer_pipe_bytes(self):
        jobs = _payload_jobs()
        execute_jobs(jobs, num_workers=2, transport="shm")
        shm_profile = last_profile()
        execute_jobs(jobs, num_workers=2, transport="pickle")
        pickle_profile = last_profile()
        assert shm_profile.shm_bytes > 0
        assert pickle_profile.shm_bytes == 0
        # The tentpole's point: payloads leave the pipe.  Descriptors are a
        # fixed few dozen bytes; pickled jobs+results are kilobytes.
        assert pickle_profile.bytes_shipped >= 10 * shm_profile.bytes_shipped


class TestTransportDeterminism:
    """jobs in {1, 2, 4} x {shm, pickle} must all produce identical results."""

    @pytest.fixture(scope="class")
    def baseline(self):
        jobs = _payload_jobs()
        return jobs, _fingerprints(execute_jobs(jobs, num_workers=1))

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_unicast_fetch_sweep_matches_sequential(self, baseline, workers, transport):
        jobs, expected = baseline
        runs = execute_jobs(jobs, num_workers=workers, transport=transport)
        assert _fingerprints(runs) == expected

    def test_chunk_size_never_affects_results(self, baseline):
        jobs, expected = baseline
        for chunk in (1, 3, 64):
            runs = execute_jobs(jobs, num_workers=2, transport="shm", chunk=chunk)
            assert _fingerprints(runs) == expected


class TestScenarioDeterminism:
    """Whole-scenario determinism with payload coding, jobs in {1, 2, 4}."""

    CONFIG = ExperimentConfig(
        fattree_k=4, num_foreground_transfers=3, object_bytes=48 * KILOBYTE,
        background_fraction=0.0, max_sim_time_s=30.0,
        polyraptor=PolyraptorConfig(carry_payload=True),
    )

    def test_figure1a_matches_for_all_worker_counts(self):
        from repro.experiments.figure1a import run_figure1a

        results = [run_figure1a(self.CONFIG, replica_counts=(1,), num_seeds=2,
                                jobs=jobs)
                   for jobs in (1, 2, 4)]
        for other in results[1:]:
            assert other.series == results[0].series
            assert other.summaries == results[0].summaries
            assert other.codec_stats == results[0].codec_stats

    def test_figure1b_matches_for_all_worker_counts(self):
        from repro.experiments.figure1b import run_figure1b

        results = [run_figure1b(self.CONFIG, sender_counts=(3,), num_seeds=2,
                                jobs=jobs)
                   for jobs in (1, 2, 4)]
        for other in results[1:]:
            assert other.series == results[0].series
            assert other.summaries == results[0].summaries
            assert other.codec_stats == results[0].codec_stats

    def test_sharded_figure_records_profile(self):
        from repro.experiments.figure1a import run_figure1a

        result = run_figure1a(self.CONFIG, replica_counts=(1,), num_seeds=2, jobs=2)
        assert result.exec_profile is not None
        assert result.exec_profile["workers"] == 2
        assert result.exec_profile["jobs_total"] == 4
        assert result.exec_profile["transport"] in ("shm", "pickle")
