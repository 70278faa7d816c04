"""Unit tests for the scenario shape (:mod:`repro.experiments.sweep`).

No simulation runs here: ``execute_jobs`` is replaced by a recorder that
hands back hand-built runs, so these tests pin the sweep layer's own
contracts -- grouping order, job dedup, the baseline ratio, counter merging
and ``num_seeds`` validation -- in milliseconds.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.experiments import sweep as sweep_module
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import RunJob
from repro.experiments.sweep import (
    cell_jobs,
    fct_points,
    keyed_cells,
    protocol_cells,
    run_sweep,
    seed_configs,
)

CONFIG = ExperimentConfig(fattree_k=4, num_foreground_transfers=2)


def _record(fct_ms=None, label="foreground", goodput=1.0):
    return SimpleNamespace(
        label=label,
        completed=fct_ms is not None,
        flow_completion_time=None if fct_ms is None else fct_ms / 1e3,
        goodput_gbps=goodput,
    )


def _run(*records, codec_stats=None, fault_stats=None, transport_stats=None):
    return SimpleNamespace(
        registry=SimpleNamespace(records=list(records)),
        codec_stats=codec_stats,
        fault_stats=fault_stats,
        transport_stats=transport_stats,
    )


@pytest.fixture
def executed(monkeypatch):
    """Replace the executor: records each call's jobs, returns one run per job."""
    calls = []

    def fake_execute_jobs(jobs, num_workers=1, label=""):
        calls.append(SimpleNamespace(jobs=list(jobs), num_workers=num_workers, label=label))
        return [_run(codec_stats={"backend": "planned", "tag": job.key}) for job in jobs]

    monkeypatch.setattr(sweep_module, "execute_jobs", fake_execute_jobs)
    monkeypatch.setattr(sweep_module, "last_profile", lambda: None)
    return calls


def _job(key, seed=1, protocol=Protocol.TCP, transfers=()):
    return RunJob(key=key, protocol=protocol, config=CONFIG.with_seed(seed),
                  transfers=tuple(transfers))


class TestRunSweep:
    def test_cells_group_in_first_seen_order_pooled_over_seeds(self, executed):
        cells = keyed_cells([
            _job((seed, series, x), seed=seed, transfers=(series, x))
            for seed in (1, 2)
            for x in ("b", "a")
            for series in ("tcp", "polyraptor")
        ])
        result = run_sweep("demo", cells, jobs=3)
        assert list(result.runs) == [
            ("tcp", "b"), ("polyraptor", "b"), ("tcp", "a"), ("polyraptor", "a"),
        ]
        assert result.series == ("tcp", "polyraptor")
        assert result.cells == ("b", "a")
        # seeds pool per cell, in sweep order
        tags = [run.codec_stats["tag"] for run in result.runs[("tcp", "a")]]
        assert tags == [(1, "tcp", "a"), (2, "tcp", "a")]
        (call,) = executed
        assert (call.label, call.num_workers, len(call.jobs)) == ("demo", 3, 8)
        assert result.exec_profile is None

    def test_identical_jobs_run_once_and_fan_back_out(self, executed):
        cells = keyed_cells([
            _job((1, "tcp", "srlg-1"), transfers=("same",)),
            _job((1, "tcp", "other"), transfers=("different",)),
            _job((1, "tcp", "delay-0ms"), transfers=("same",)),
        ])
        result = run_sweep("demo", cells)
        (call,) = executed
        assert [job.key for job in call.jobs] == [(1, "tcp", "srlg-1"), (1, "tcp", "other")]
        assert result.runs[("tcp", "delay-0ms")][0] is result.runs[("tcp", "srlg-1")][0]
        assert result.runs[("tcp", "other")][0] is not result.runs[("tcp", "srlg-1")][0]

    def test_codec_stats_merge_per_series(self, executed):
        cells = keyed_cells([
            _job((seed, series, x), seed=seed)
            for seed in (1, 2) for x in (0, 1) for series in ("polyraptor", "tcp")
        ])
        stats = run_sweep("demo", cells).codec_stats
        assert set(stats) == {"polyraptor", "tcp"}
        assert stats["polyraptor"]["shards"] == 4

    def test_protocol_cells_key_jobs_by_protocol(self):
        cells = protocol_cells(CONFIG, ["t"], (Protocol.POLYRAPTOR, Protocol.TCP))
        assert [key for key, _ in cells] == [("polyraptor", None), ("tcp", None)]
        assert [job.key for _, job in cells] == [Protocol.POLYRAPTOR, Protocol.TCP]
        assert {job.transfers for _, job in cells} == {("t",)}

    def test_cell_jobs_share_traffic_and_schedule(self):
        jobs = cell_jobs("srlg-2", CONFIG.with_seed(7), ["t"], (Protocol.POLYRAPTOR, Protocol.TCP))
        assert [job.key for job in jobs] == [(7, "polyraptor", "srlg-2"), (7, "tcp", "srlg-2")]
        assert jobs[0].transfers == jobs[1].transfers == ("t",)
        assert jobs[0].fault_schedule is jobs[1].fault_schedule is None


class TestSeedConfigs:
    def test_one_config_per_seed_from_the_base_seed(self):
        assert [c.seed for c in seed_configs(CONFIG.with_seed(5), 3)] == [5, 6, 7]

    @pytest.mark.parametrize("num_seeds", [0, -2])
    def test_non_positive_seed_counts_rejected(self, num_seeds):
        with pytest.raises(ValueError, match="num_seeds must be a positive integer"):
            seed_configs(CONFIG, num_seeds)

    def test_every_seeded_scenario_rejects_zero_seeds_before_running(self, executed):
        from repro.experiments.correlated import run_correlated
        from repro.experiments.figure1a import run_figure1a
        from repro.experiments.figure1b import run_figure1b
        from repro.experiments.figure1c import run_figure1c
        from repro.experiments.incast import run_incast
        from repro.experiments.resilience import run_resilience

        for run in (run_figure1a, run_figure1b, run_figure1c, run_resilience,
                    run_correlated, run_incast):
            with pytest.raises(ValueError, match="num_seeds"):
                run(CONFIG, num_seeds=0)
        assert executed == []


class TestFctPoints:
    def test_quantiles_counts_and_ratio_against_the_named_baseline(self):
        runs = {
            ("tcp", "healthy"): [_run(_record(2.0), _record(4.0, goodput=3.0))],
            ("tcp", "broken"): [_run(_record(8.0)), _run(_record(None), _record(1.0, "other"))],
        }
        points = fct_points(runs, "foreground", baseline_of=lambda cell: "healthy")
        healthy, broken = points[("tcp", "healthy")], points[("tcp", "broken")]
        assert (healthy.series, healthy.cell) == ("tcp", "healthy")
        assert (healthy.completed, healthy.offered) == (2, 2)
        assert healthy.median_fct_ms == pytest.approx(2.0)
        assert healthy.p99_fct_ms == pytest.approx(4.0)
        assert healthy.mean_goodput_gbps == pytest.approx(2.0)
        assert healthy.fct_vs_baseline == pytest.approx(1.0)
        # pooled over both runs; the "other"-labelled record does not count
        assert (broken.completed, broken.offered) == (1, 2)
        assert broken.completion_fraction == 0.5
        assert broken.fct_vs_baseline == pytest.approx(4.0)

    def test_ratio_is_none_when_either_median_is_undefined(self):
        runs = {
            ("tcp", "healthy"): [_run(_record(2.0))],
            ("tcp", "dead"): [_run(_record(None))],
            ("polyraptor", "healthy"): [_run(_record(None))],
            ("polyraptor", "fine"): [_run(_record(3.0))],
        }
        points = fct_points(runs, "foreground", baseline_of=lambda cell: "healthy")
        dead = points[("tcp", "dead")]
        assert math.isinf(dead.median_fct_ms) and math.isinf(dead.p90_fct_ms)
        assert dead.mean_goodput_gbps == 0.0
        assert dead.fct_vs_baseline is None  # this cell's median is undefined
        assert points[("polyraptor", "fine")].fct_vs_baseline is None  # the baseline's is
        assert points[("polyraptor", "healthy")].fct_vs_baseline is None

    def test_cells_without_a_baseline_carry_no_ratio(self):
        runs = {("tcp", "off"): [_run(_record(2.0))], ("tcp", "on"): [_run(_record(1.0))]}
        points = fct_points(
            runs, "foreground", baseline_of=lambda cell: "off" if cell == "on" else None
        )
        assert points[("tcp", "off")].fct_vs_baseline is None
        assert points[("tcp", "on")].fct_vs_baseline == pytest.approx(0.5)

    def test_baseline_may_come_later_in_the_sweep(self):
        runs = {("tcp", 0.5): [_run(_record(3.0))], ("tcp", 0.0): [_run(_record(2.0))]}
        points = fct_points(runs, "foreground", baseline_of=lambda cell: 0.0)
        assert points[("tcp", 0.5)].fct_vs_baseline == pytest.approx(1.5)

    def test_counters_sum_over_seeds_and_all_none_merges_to_none(self):
        runs = {
            ("tcp", "a"): [
                _run(_record(1.0), fault_stats={"reroutes": 2}),
                _run(_record(1.0), fault_stats={"reroutes": 3}),
            ],
        }
        point = fct_points(runs, "foreground", baseline_of=lambda cell: None)[("tcp", "a")]
        assert point.fault_stats == {"reroutes": 5, "shards": 2}
        assert point.transport_stats is None
