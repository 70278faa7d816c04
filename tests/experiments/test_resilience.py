"""Tests for the path-resilience experiment and fault determinism.

The headline contract (ISSUE acceptance): a resilience sweep sharded over
``jobs=N`` workers is indistinguishable from ``jobs=1`` in every reported
number -- per-transfer metrics, fault event counts and fault-caused packet
drops -- because fault schedules are immutable value objects generated in
the parent and every randomness source derives from the job's config seed.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import RunJob, execute_jobs
from repro.experiments.report import format_fault_stats, format_sweep
from repro.experiments.resilience import TABLE, expand_resilience_sweep, run_resilience
from repro.experiments.runner import run_transfers
from repro.faults.schedule import FaultSchedule, link_down, link_up
from repro.network.network import NetworkConfig
from repro.utils.units import KILOBYTE
from repro.workloads.spec import TransferKind, TransferSpec

QUICK = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=6,
    object_bytes=48 * KILOBYTE,
    background_fraction=0.0,
    max_sim_time_s=20.0,
)


def _transfer_metrics(run):
    return [
        (r.transfer_id, r.label, r.transfer_bytes, r.start_time, r.completion_time)
        for r in run.registry.records
    ]


class TestRunnerIntegration:
    def test_empty_schedule_reports_no_fault_stats(self):
        spec = TransferSpec(transfer_id=1, kind=TransferKind.UNICAST, client="h0",
                            peers=("h15",), size_bytes=48_000, start_time=0.0)
        run = run_transfers(Protocol.POLYRAPTOR, QUICK, [spec],
                            fault_schedule=FaultSchedule())
        assert run.fault_stats is None

    def test_transient_link_failure_is_survived_and_counted(self):
        spec = TransferSpec(transfer_id=1, kind=TransferKind.UNICAST, client="h0",
                            peers=("h15",), size_bytes=48_000, start_time=0.0)
        schedule = FaultSchedule((
            link_down(0.0002, "agg0_0", "edge0_0"),
            link_up(0.0006, "agg0_0", "edge0_0"),
        ))
        run = run_transfers(Protocol.POLYRAPTOR, QUICK, [spec], fault_schedule=schedule)
        assert run.completion_fraction == 1.0
        stats = run.fault_stats
        assert stats["events_applied"] == 2
        assert stats["links_failed"] == stats["links_restored"] == 1
        assert stats["reroutes"] > 0


class TestShardedFaultDeterminism:
    """jobs=N must reproduce jobs=1 exactly, fault counters included."""

    @pytest.fixture(scope="class")
    def sequential_and_sharded(self):
        jobs = expand_resilience_sweep(
            QUICK, intensities=(0.0, 1.0),
            protocols=(Protocol.POLYRAPTOR, Protocol.TCP), num_seeds=2,
        )
        return jobs, execute_jobs(jobs, num_workers=1), execute_jobs(jobs, num_workers=4)

    def test_jobs_with_schedules_are_picklable(self, sequential_and_sharded):
        jobs, _, _ = sequential_and_sharded
        clone = pickle.loads(pickle.dumps(jobs[-1]))
        assert clone.fault_schedule == jobs[-1].fault_schedule

    def test_per_transfer_metrics_identical(self, sequential_and_sharded):
        _, sequential, sharded = sequential_and_sharded
        for seq_run, par_run in zip(sequential, sharded):
            assert _transfer_metrics(seq_run) == _transfer_metrics(par_run)

    def test_fault_stats_identical(self, sequential_and_sharded):
        jobs, sequential, sharded = sequential_and_sharded
        saw_faults = 0
        for job, seq_run, par_run in zip(jobs, sequential, sharded):
            assert seq_run.fault_stats == par_run.fault_stats
            if job.fault_schedule:
                saw_faults += 1
                assert seq_run.fault_stats["events_applied"] == len(job.fault_schedule)
        assert saw_faults > 0

    def test_fabric_counters_identical(self, sequential_and_sharded):
        _, sequential, sharded = sequential_and_sharded
        for seq_run, par_run in zip(sequential, sharded):
            assert seq_run.events_processed == par_run.events_processed
            assert seq_run.trimmed_packets == par_run.trimmed_packets
            assert seq_run.dropped_packets == par_run.dropped_packets


class TestFaultWindow:
    def test_window_covers_service_time_not_just_arrivals(self):
        """Even a burst of simultaneous arrivals gets a window long enough
        that faults can strike transfers in flight."""
        from repro.experiments.resilience import fault_window

        burst = [
            TransferSpec(transfer_id=i, kind=TransferKind.UNICAST, client="h0",
                         peers=("h15",), size_bytes=QUICK.object_bytes, start_time=0.0)
            for i in range(4)
        ]
        _, duration = fault_window(QUICK, burst)
        ideal_service = QUICK.object_bytes * 8 / NetworkConfig.link_rate_bps
        assert duration >= ideal_service

    def test_faults_actually_interact_with_traffic(self):
        """At CI-smoke scale, the max intensity produces fault-caused packet
        drops or a measurable FCT change -- not a no-op on a drained fabric."""
        config = ExperimentConfig(
            fattree_k=4, num_foreground_transfers=4, object_bytes=32 * KILOBYTE,
            background_fraction=0.0, max_sim_time_s=10.0,
        )
        result = run_resilience(config, intensities=(1.0,), num_seeds=2, jobs=1)
        touched = 0
        for protocol in (Protocol.POLYRAPTOR, Protocol.TCP):
            stats = result.point(protocol, 1.0).fault_stats
            touched += stats["packets_dropped_link_down"]
            touched += stats["packets_dropped_random_loss"]
            touched += stats["packets_dropped_switch_down"]
            point = result.point(protocol, 1.0)
            baseline = result.point(protocol, 0.0)
            if point.median_fct_ms != baseline.median_fct_ms \
                    or point.p90_fct_ms != baseline.p90_fct_ms:
                touched += 1
        assert touched > 0
        # Every fault in the schedule is transient, so Polyraptor must ride
        # out even the heaviest intensity (this once deadlocked: a DONE
        # control packet lost on a dead link left the sender waiting forever
        # -- receivers now retransmit DONE with capped backoff).
        assert result.point(Protocol.POLYRAPTOR, 1.0).completion_fraction == 1.0


class TestSweepExpansion:
    def test_same_schedule_for_both_protocols(self):
        jobs = expand_resilience_sweep(
            QUICK, intensities=(0.0, 0.5),
            protocols=(Protocol.POLYRAPTOR, Protocol.TCP), num_seeds=1,
        )
        by_key = {job.key: job for job in jobs}
        assert by_key[(1, "polyraptor", 0.5)].fault_schedule == \
            by_key[(1, "tcp", 0.5)].fault_schedule
        assert len(by_key[(1, "polyraptor", 0.0)].fault_schedule) == 0

    def test_same_workload_for_every_intensity(self):
        jobs = expand_resilience_sweep(
            QUICK, intensities=(0.0, 1.0), protocols=(Protocol.POLYRAPTOR,), num_seeds=1,
        )
        assert jobs[0].transfers == jobs[1].transfers

    def test_seeds_vary_workload_and_schedule(self):
        jobs = expand_resilience_sweep(
            QUICK, intensities=(1.0,), protocols=(Protocol.POLYRAPTOR,), num_seeds=2,
        )
        assert jobs[0].transfers != jobs[1].transfers
        assert jobs[0].fault_schedule != jobs[1].fault_schedule


class TestRunResilience:
    @pytest.fixture(scope="class")
    def result(self):
        return run_resilience(QUICK, intensities=(0.6,), num_seeds=1, jobs=1)

    def test_healthy_baseline_always_included(self, result):
        assert result.cells == (0.0, 0.6)
        point = result.point(Protocol.POLYRAPTOR, 0.0)
        assert point.fault_stats is None
        assert point.fct_vs_baseline == pytest.approx(1.0)

    def test_faulted_points_carry_counters(self, result):
        for protocol in (Protocol.POLYRAPTOR, Protocol.TCP):
            stats = result.point(protocol, 0.6).fault_stats
            assert stats is not None
            assert stats["events_applied"] > 0
            assert stats["reroutes"] > 0

    def test_offered_counts_match_config(self, result):
        for (protocol, intensity), point in result.points.items():
            assert point.offered == QUICK.num_foreground_transfers
            assert 0.0 <= point.completion_fraction <= 1.0

    def test_format_produces_both_tables(self, result):
        text = format_sweep(result, **TABLE)
        assert "vs healthy" in text
        assert "Fault counters" in text
        assert "reroutes" in text
        assert "polyraptor" in text and "tcp" in text


class TestMergeFaultStats:
    # The merge itself is repro.experiments.report.merge_counter_stats, shared
    # with the transport counters and tested once in test_incast.py.
    def test_format_renders_missing_stats_as_dashes(self):
        text = format_fault_stats({"healthy": None, "faulted": {"links_failed": 2}})
        assert "healthy" in text and "-" in text
        assert "faulted" in text
