"""Tests for the correlated & gray failure experiment.

The headline contracts (ISSUE acceptance): a correlated sweep sharded over
``jobs=N`` is indistinguishable from ``jobs=1`` in every reported number --
per-transfer metrics, fault counters (including the per-builder cause
attribution) and codec counters -- and ``convergence_delay=0`` reproduces
the instantaneous-reconvergence behaviour exactly (the delay-0 cell is
byte-identical to the plain SRLG cell it replays).
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.correlated import (
    TABLE,
    correlated_labels,
    expand_correlated_sweep,
    run_correlated,
)
from repro.experiments.parallel import execute_jobs
from repro.experiments.report import format_sweep
from repro.experiments.runner import run_transfers
from repro.utils.units import KILOBYTE

QUICK = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=6,
    object_bytes=48 * KILOBYTE,
    background_fraction=0.0,
    max_sim_time_s=20.0,
)

AXES = dict(srlg_sizes=(1, 3), gray_rates=(0.02,), convergence_delays=(0.0, 0.001))


def _transfer_metrics(run):
    return [
        (r.transfer_id, r.label, r.transfer_bytes, r.start_time, r.completion_time)
        for r in run.registry.records
    ]


class TestLabels:
    def test_sweep_order_and_contents(self):
        labels = correlated_labels((1, 3), (0.02,), (0.0, 0.001))
        assert labels == (
            "healthy", "srlg-1", "srlg-3", "rack", "gray-0.02",
            "delay-0ms", "delay-1ms",
        )

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            correlated_labels((2, 2), (0.02,), (0.0,))


class TestSweepExpansion:
    @pytest.fixture(scope="class")
    def jobs(self):
        return expand_correlated_sweep(
            QUICK, protocols=(Protocol.POLYRAPTOR, Protocol.TCP), num_seeds=1, **AXES
        )

    def test_same_schedule_for_both_protocols(self, jobs):
        by_key = {job.key: job for job in jobs}
        for label in ("srlg-1", "rack", "gray-0.02"):
            assert by_key[(1, "polyraptor", label)].fault_schedule == \
                by_key[(1, "tcp", label)].fault_schedule

    def test_healthy_cell_has_no_schedule(self, jobs):
        by_key = {job.key: job for job in jobs}
        assert by_key[(1, "polyraptor", "healthy")].fault_schedule is None

    def test_delay_cells_replay_the_first_srlg_schedule(self, jobs):
        by_key = {job.key: job for job in jobs}
        reference = by_key[(1, "polyraptor", "srlg-1")].fault_schedule
        for label in ("delay-0ms", "delay-1ms"):
            assert by_key[(1, "polyraptor", label)].fault_schedule == reference

    def test_delay_rides_inside_the_job_config(self, jobs):
        by_key = {job.key: job for job in jobs}
        assert by_key[(1, "tcp", "delay-1ms")].config.convergence_delay_s == 0.001
        assert by_key[(1, "tcp", "delay-0ms")].config.convergence_delay_s == 0.0
        assert by_key[(1, "tcp", "srlg-1")].config.convergence_delay_s == 0.0

    def test_same_workload_for_every_cell(self, jobs):
        transfers = {job.transfers for job in jobs if job.key[0] == 1}
        assert len(transfers) == 1

    def test_jobs_pickle_unchanged(self, jobs):
        clone = pickle.loads(pickle.dumps(jobs[-1]))
        assert clone.fault_schedule == jobs[-1].fault_schedule
        assert clone.config == jobs[-1].config

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="srlg_sizes"):
            expand_correlated_sweep(QUICK, (), (0.02,), (0.0,),
                                    (Protocol.POLYRAPTOR,), 1)
        with pytest.raises(ValueError, match="gray rates"):
            expand_correlated_sweep(QUICK, (1,), (0.0,), (0.0,),
                                    (Protocol.POLYRAPTOR,), 1)
        with pytest.raises(ValueError, match="delays"):
            expand_correlated_sweep(QUICK, (1,), (0.02,), (-0.001,),
                                    (Protocol.POLYRAPTOR,), 1)


class TestShardedDeterminism:
    """jobs=N must reproduce jobs=1 exactly, cause counters included."""

    @pytest.fixture(scope="class")
    def sequential_and_sharded(self):
        jobs = expand_correlated_sweep(
            QUICK, protocols=(Protocol.POLYRAPTOR, Protocol.TCP), num_seeds=2, **AXES
        )
        return jobs, execute_jobs(jobs, num_workers=1), execute_jobs(jobs, num_workers=4)

    def test_per_transfer_metrics_identical(self, sequential_and_sharded):
        _, sequential, sharded = sequential_and_sharded
        for seq_run, par_run in zip(sequential, sharded):
            assert _transfer_metrics(seq_run) == _transfer_metrics(par_run)

    def test_fault_stats_identical_including_causes(self, sequential_and_sharded):
        jobs, sequential, sharded = sequential_and_sharded
        causes_seen = set()
        for job, seq_run, par_run in zip(jobs, sequential, sharded):
            assert seq_run.fault_stats == par_run.fault_stats
            if seq_run.fault_stats:
                causes_seen.update(
                    k for k in seq_run.fault_stats if k.startswith("cause_")
                )
        assert {"cause_srlg", "cause_rack_power", "cause_gray"} <= causes_seen

    def test_convergence_counters_identical(self, sequential_and_sharded):
        jobs, sequential, sharded = sequential_and_sharded
        lagged = 0
        for job, seq_run, par_run in zip(jobs, sequential, sharded):
            if not job.fault_schedule:
                continue
            assert seq_run.fault_stats["route_installs"] == \
                par_run.fault_stats["route_installs"]
            if job.config.convergence_delay_s > 0:
                lagged += 1
        assert lagged > 0


class TestConvergenceDelayZeroIsExact:
    """The acceptance bar: delay 0 reproduces instantaneous behaviour."""

    def test_delay_zero_cell_equals_plain_srlg_cell(self):
        result = run_correlated(QUICK, num_seeds=1, jobs=1, **AXES)
        for protocol in (Protocol.POLYRAPTOR, Protocol.TCP):
            anchored = result.point(protocol, "delay-0ms")
            plain = result.point(protocol, "srlg-1")
            assert anchored.median_fct_ms == plain.median_fct_ms
            assert anchored.p90_fct_ms == plain.p90_fct_ms
            assert anchored.completed == plain.completed
            assert anchored.fault_stats == plain.fault_stats

    def test_explicit_delay_zero_config_matches_default_config_run(self):
        """A config that sets convergence_delay_s=0.0 explicitly is
        byte-identical to one that never mentions the knob."""
        jobs = expand_correlated_sweep(
            QUICK, srlg_sizes=(2,), gray_rates=(0.02,), convergence_delays=(0.0,),
            protocols=(Protocol.POLYRAPTOR,), num_seeds=1,
        )
        srlg_job = next(job for job in jobs if job.key[2] == "srlg-2")
        explicit = replace(srlg_job.config, convergence_delay_s=0.0)
        baseline = run_transfers(
            srlg_job.protocol, srlg_job.config, list(srlg_job.transfers),
            fault_schedule=srlg_job.fault_schedule,
        )
        pinned = run_transfers(
            srlg_job.protocol, explicit, list(srlg_job.transfers),
            fault_schedule=srlg_job.fault_schedule,
        )
        assert _transfer_metrics(baseline) == _transfer_metrics(pinned)
        assert baseline.fault_stats == pinned.fault_stats
        assert baseline.events_processed == pinned.events_processed


class TestRunCorrelated:
    @pytest.fixture(scope="class")
    def result(self):
        return run_correlated(QUICK, num_seeds=1, jobs=1, **AXES)

    def test_all_cells_reported_for_both_protocols(self, result):
        assert result.cells == correlated_labels(**{
            "srlg_sizes": AXES["srlg_sizes"],
            "gray_rates": AXES["gray_rates"],
            "convergence_delays": AXES["convergence_delays"],
        })
        for protocol in (Protocol.POLYRAPTOR, Protocol.TCP):
            for label in result.cells:
                point = result.point(protocol, label)
                assert point.offered == QUICK.num_foreground_transfers
                assert 0.0 <= point.completion_fraction <= 1.0

    def test_healthy_baseline_ratio_is_one(self, result):
        for protocol in (Protocol.POLYRAPTOR, Protocol.TCP):
            point = result.point(protocol, "healthy")
            assert point.fault_stats is None
            assert point.fct_vs_baseline == pytest.approx(1.0)

    def test_gray_cells_show_loss_but_no_reroutes(self, result):
        for protocol in (Protocol.POLYRAPTOR, Protocol.TCP):
            stats = result.point(protocol, "gray-0.02").fault_stats
            assert stats["links_lossy"] > 0
            assert stats["reroutes"] == 0  # routing never reacts to gray loss
            assert stats["cause_gray"] == stats["events_applied"]

    def test_rack_cell_shows_compound_failure(self, result):
        for protocol in (Protocol.POLYRAPTOR, Protocol.TCP):
            stats = result.point(protocol, "rack").fault_stats
            assert stats["switches_failed"] == 1
            assert stats["links_failed"] > 0
            assert stats["recomputes_requested"] == 2  # down batch + recovery batch

    def test_polyraptor_rides_out_every_cell(self, result):
        for label in result.cells:
            assert result.point(Protocol.POLYRAPTOR, label).completion_fraction == 1.0

    def test_codec_stats_merged_per_protocol(self, result):
        assert result.codec_stats["polyraptor"] is not None
        assert result.codec_stats["tcp"] is None

    def test_format_produces_tables_with_causes(self, result):
        text = format_sweep(result, **TABLE)
        assert "vs healthy" in text
        assert "Fault counters" in text
        assert "causes" in text
        assert "srlg:" in text and "gray:" in text and "rack_power:" in text
        assert "delay-1ms" in text
