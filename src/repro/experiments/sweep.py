"""The one scenario shape: cells -> :func:`run_sweep` -> reducer -> columns.

The paper's whole evaluation is "same offered traffic, Polyraptor vs TCP,
one axis varied".  Every scenario module therefore does the same four things
and owns only the first and the last:

1. **expand** its axes into *cells* -- ``((series, x), RunJob)`` pairs, where
   ``series`` names a line of the figure (usually the protocol), ``x`` the
   point on the varied axis (``None`` for single-point series), and
   repetitions over seeds simply repeat the ``(series, x)`` key;
2. **run** them: :func:`run_sweep` is the scenario layer's only caller of
   :func:`~repro.experiments.parallel.execute_jobs`, so sharding, job
   dedup, per-cell pooling, codec-counter merging and the executor profile
   are written once;
3. **reduce** each cell's pooled runs to a point -- :func:`fct_points` for
   the FCT-degradation sweeps, a few lines of goodput arithmetic for the
   figures;
4. **render** the points through a column list
   (:func:`repro.experiments.report.format_table` /
   :func:`~repro.experiments.report.format_sweep`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Optional, Sequence

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import RunJob, execute_jobs, last_profile
from repro.experiments.report import merge_codec_stats, merge_counter_stats
from repro.experiments.runner import RunResult
from repro.faults.schedule import FaultSchedule
from repro.utils.cdf import Cdf

#: ``(series, x)`` -- which line of the figure, which point on its axis.
CellKey = tuple[str, Hashable]


@dataclass(frozen=True)
class SweepPoint:
    """One series' outcome in one cell of an FCT sweep (pooled across seeds)."""

    series: str
    cell: Hashable
    completed: int
    offered: int
    median_fct_ms: float
    p90_fct_ms: float
    p99_fct_ms: float
    mean_goodput_gbps: float
    #: median FCT divided by the median of the same series' baseline cell;
    #: ``None`` when the cell has no baseline or either median is undefined
    #: (no completed transfers)
    fct_vs_baseline: Optional[float]
    #: merged fault counters; ``None`` when every run had a healthy fabric
    fault_stats: Optional[dict]
    #: merged congestion-reaction counters; ``None`` when every reactive
    #: feature was off (runs carry no transport stats)
    transport_stats: Optional[dict]

    @property
    def completion_fraction(self) -> float:
        """Fraction of offered transfers that completed."""
        return self.completed / self.offered if self.offered else 0.0


@dataclass
class SweepResult:
    """What :func:`run_sweep` returns and every FCT scenario hands back."""

    #: every run of each cell, seeds pooled, cells in first-seen sweep order
    runs: dict[CellKey, list[RunResult]]
    #: per-series codec counters merged across every cell and seed
    codec_stats: dict[str, Optional[dict]]
    #: Executor accounting for the sweep (see
    #: :class:`~repro.experiments.parallel.ExecutorProfile`); never affects
    #: the measured points, only explains where the wall clock went.
    exec_profile: Optional[dict]
    #: the reduced cells, filled in by the scenario (see :func:`fct_points`)
    points: dict[CellKey, SweepPoint] = field(default_factory=dict)

    @property
    def series(self) -> tuple[str, ...]:
        """Series names in sweep order."""
        return tuple(dict.fromkeys(series for series, _ in self.runs))

    @property
    def cells(self) -> tuple[Hashable, ...]:
        """Axis values in sweep order (intensities, cell labels, ...)."""
        return tuple(dict.fromkeys(cell for _, cell in self.runs))

    def point(self, protocol: Protocol, cell: Hashable) -> SweepPoint:
        """The summary for one (protocol, cell) pair."""
        return self.points[(protocol.value, cell)]


def seed_configs(config: ExperimentConfig, num_seeds: int) -> list[ExperimentConfig]:
    """One copy of ``config`` per repetition seed, starting at ``config.seed``."""
    if num_seeds < 1:
        raise ValueError(f"num_seeds must be a positive integer, got {num_seeds}")
    return [config.with_seed(seed) for seed in range(config.seed, config.seed + num_seeds)]


def cell_jobs(
    cell: Hashable,
    config: ExperimentConfig,
    transfers: Sequence,
    protocols: Sequence[Protocol],
    fault_schedule: Optional[FaultSchedule] = None,
) -> list[RunJob]:
    """One cell under every protocol, keyed ``(config.seed, protocol.value, cell)``.

    The protocols share the transfers and the fault schedule, so they are
    offered byte-identical traffic on the same (possibly broken) fabric.
    """
    return [
        RunJob(
            key=(config.seed, protocol.value, cell),
            protocol=protocol,
            config=config,
            transfers=tuple(transfers),
            fault_schedule=fault_schedule,
        )
        for protocol in protocols
    ]


def keyed_cells(sweep: Sequence[RunJob]) -> list[tuple[CellKey, RunJob]]:
    """Cells of jobs keyed ``(seed, series, x)``: the key minus its seed."""
    return [(job.key[1:], job) for job in sweep]


def protocol_cells(
    config: ExperimentConfig, transfers: Sequence, protocols: Sequence[Protocol]
) -> list[tuple[CellKey, RunJob]]:
    """The smallest sweep: the same offered traffic once under each protocol."""
    return [
        (
            (protocol.value, None),
            RunJob(key=protocol, protocol=protocol, config=config, transfers=tuple(transfers)),
        )
        for protocol in protocols
    ]


def run_sweep(
    label: str, cells: Sequence[tuple[CellKey, RunJob]], jobs: int = 1
) -> SweepResult:
    """Execute a sweep's cells and pool the runs per cell.

    Jobs that are byte-identical by construction (every field but ``key``
    equal -- e.g. the correlated sweep's delay-0 anchor replays the first
    SRLG cell under an unchanged config) are simulated once and the
    ``RunResult`` shared; the output cannot differ, only the wall clock
    does.  Results are identical for every ``jobs`` value, see
    :mod:`repro.experiments.parallel`.
    """
    fingerprints = [replace(job, key=None) for _, job in cells]
    unique: dict[RunJob, RunJob] = {}
    for fingerprint, (_, job) in zip(fingerprints, cells):
        unique.setdefault(fingerprint, job)
    run_of = dict(zip(unique, execute_jobs(list(unique.values()), num_workers=jobs, label=label)))
    profile = last_profile()

    runs: dict[CellKey, list[RunResult]] = {}
    by_series: dict[str, list[Optional[dict]]] = {}
    for fingerprint, (key, _) in zip(fingerprints, cells):
        runs.setdefault(key, []).append(run_of[fingerprint])
        by_series.setdefault(key[0], []).append(run_of[fingerprint].codec_stats)
    return SweepResult(
        runs=runs,
        codec_stats={series: merge_codec_stats(stats) for series, stats in by_series.items()},
        exec_profile=profile.as_dict() if profile is not None else None,
    )


def fct_points(
    runs: dict[CellKey, list[RunResult]],
    record_label: str,
    baseline_of: Callable[[Hashable], Optional[Hashable]],
) -> dict[CellKey, SweepPoint]:
    """Reduce each cell's pooled runs to completion, FCT quantiles and ratio.

    Only transfer records labelled ``record_label`` count.
    ``baseline_of(x)`` names the cell, within the same series, whose median
    FCT the cell at ``x`` is divided by (``None``: no ratio for this cell).
    Cells without completed transfers get infinite quantiles and no ratio: a
    degradation ratio against nothing is undefined, not 0x or infx.
    """
    points: dict[CellKey, SweepPoint] = {}
    for (series, cell), cell_runs in runs.items():
        records = [
            record
            for run in cell_runs
            for record in run.registry.records
            if record.label == record_label
        ]
        completed = [record for record in records if record.completed]
        fcts_ms = [record.flow_completion_time * 1e3 for record in completed]
        goodputs = [record.goodput_gbps for record in completed]
        cdf = Cdf.from_samples(fcts_ms) if fcts_ms else None
        points[(series, cell)] = SweepPoint(
            series=series,
            cell=cell,
            completed=len(completed),
            offered=len(records),
            median_fct_ms=cdf.median() if cdf else math.inf,
            p90_fct_ms=cdf.quantile(0.9) if cdf else math.inf,
            p99_fct_ms=cdf.quantile(0.99) if cdf else math.inf,
            mean_goodput_gbps=sum(goodputs) / len(goodputs) if goodputs else 0.0,
            fct_vs_baseline=None,
            fault_stats=merge_counter_stats([run.fault_stats for run in cell_runs]),
            transport_stats=merge_counter_stats([run.transport_stats for run in cell_runs]),
        )
    for (series, cell), point in points.items():
        baseline = points.get((series, baseline_of(cell)))
        if (
            baseline is not None
            and math.isfinite(point.median_fct_ms)
            and math.isfinite(baseline.median_fct_ms)
            and baseline.median_fct_ms > 0
        ):
            points[(series, cell)] = replace(
                point, fct_vs_baseline=point.median_fct_ms / baseline.median_fct_ms
            )
    return points
