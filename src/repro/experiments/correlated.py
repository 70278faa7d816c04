"""Correlated & gray failure experiment: realistic damage, slow control planes.

The resilience experiment (:mod:`repro.experiments.resilience`) injects
*independent* faults and lets routing reconverge instantaneously -- the
friendliest possible failure model.  Real failure studies disagree on both
axes: links share conduits, linecards and power feeds, so one physical event
takes down a *set* of links (shared-risk link groups), rack power loss kills
a ToR and every host behind it at once, a large share of incidents are
"gray" (no link goes down, many links quietly drop a little -- routing never
reacts), and when routing *does* react, the control plane needs time during
which stale tables black-hole traffic.  The PCN congestion analyses and
reactive distributed congestion-control evaluations in PAPERS.md raise the
same concern from the signalling side: loss regimes that detection misses
are the ones transports must absorb on their own.

This experiment sweeps three hostile axes against the same permutation
workload and compares Polyraptor and per-flow-ECMP TCP against their own
healthy baselines:

* **SRLG size** -- one shared-risk event taking down 1..n fabric links
  anchored at one switch (``shared_risk_group_schedule``), plus a full rack
  power event (``rack_power_schedule``);
* **gray-loss rate** -- low-probability Bernoulli loss (and a mild rate
  degrade) smeared across half the fabric links
  (``gray_failure_schedule``), with no routing response at all;
* **convergence delay** -- the *same* SRLG event replayed under increasing
  control-plane lag (``ExperimentConfig.convergence_delay_s``), isolating
  what reconvergence speed is worth.

Every (seed, cell, protocol) is an independent
:class:`~repro.experiments.parallel.RunJob`: schedules are immutable value
objects generated in the parent, the convergence knob rides inside the
job's config, so the sweep shards over ``--jobs N`` workers with
byte-identical output for any N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import RunJob, execute_jobs, last_profile
from repro.experiments.report import merge_codec_stats, merge_counter_stats
from repro.experiments.resilience import fault_window, permutation_workload
from repro.faults.schedule import (
    FaultSchedule,
    gray_failure_schedule,
    rack_power_schedule,
    shared_risk_group_schedule,
)
from repro.network.topology import FatTreeTopology
from repro.sim.randomness import RandomStreams
from repro.utils.cdf import Cdf

#: Cell label of the healthy baseline every ratio is computed against.
HEALTHY = "healthy"

#: Fraction of fabric links a gray-failure cell smears loss over.
GRAY_AFFECTED_FRACTION = 0.5
#: Mild serialisation slowdown gray links suffer on top of the loss.
GRAY_DEGRADE_TO = 0.85


@dataclass(frozen=True)
class CorrelatedPoint:
    """One protocol's outcome in one failure cell (pooled across seeds)."""

    protocol: Protocol
    label: str
    completed: int
    offered: int
    median_fct_ms: float
    p90_fct_ms: float
    mean_goodput_gbps: float
    #: median FCT divided by the same protocol's healthy-cell median FCT;
    #: ``None`` when either median is undefined (no completed transfers)
    fct_vs_healthy: Optional[float]
    fault_stats: Optional[dict]

    @property
    def completion_fraction(self) -> float:
        """Fraction of offered transfers that completed."""
        return self.completed / self.offered if self.offered else 0.0


@dataclass
class CorrelatedResult:
    """The full correlated sweep: failure cells x protocols."""

    config: ExperimentConfig
    #: cell labels in sweep order (healthy, srlg-*, rack, gray-*, delay-*)
    labels: tuple[str, ...] = ()
    #: points[(protocol.value, label)]
    points: dict[tuple[str, str], CorrelatedPoint] = field(default_factory=dict)
    #: per-protocol codec counters merged across every cell and seed
    codec_stats: dict[str, Optional[dict]] = field(default_factory=dict)
    #: Executor accounting for the sweep (see
    #: :class:`~repro.experiments.parallel.ExecutorProfile`).
    exec_profile: Optional[dict] = None

    def point(self, protocol: Protocol, label: str) -> CorrelatedPoint:
        """The summary for one (protocol, cell) pair."""
        return self.points[(protocol.value, label)]


def correlated_labels(
    srlg_sizes: tuple[int, ...],
    gray_rates: tuple[float, ...],
    convergence_delays: tuple[float, ...],
) -> tuple[str, ...]:
    """Cell labels in sweep order; shared by expansion and reporting."""
    labels = [HEALTHY]
    labels += [f"srlg-{size}" for size in srlg_sizes]
    labels.append("rack")
    labels += [f"gray-{rate:g}" for rate in gray_rates]
    labels += [f"delay-{delay * 1e3:g}ms" for delay in convergence_delays]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate sweep cells in {labels}")
    return tuple(labels)


def _validate_axes(
    srlg_sizes: tuple[int, ...],
    gray_rates: tuple[float, ...],
    convergence_delays: tuple[float, ...],
) -> None:
    if not srlg_sizes:
        raise ValueError("srlg_sizes cannot be empty (the delay axis reuses its first size)")
    if any(size < 1 for size in srlg_sizes):
        raise ValueError(f"srlg_sizes must be positive integers, got {srlg_sizes}")
    if any(not 0.0 < rate <= 1.0 for rate in gray_rates):
        raise ValueError(f"gray rates must be probabilities in (0, 1], got {gray_rates}")
    if any(delay < 0 for delay in convergence_delays):
        raise ValueError(f"convergence delays cannot be negative, got {convergence_delays}")


def expand_correlated_sweep(
    config: ExperimentConfig,
    srlg_sizes: tuple[int, ...],
    gray_rates: tuple[float, ...],
    convergence_delays: tuple[float, ...],
    protocols: tuple[Protocol, ...],
    num_seeds: int,
) -> list[RunJob]:
    """Expand seeds x cells x protocols into fully-by-value jobs.

    Per seed, the workload is generated once (shared by every cell and
    protocol -- the fair-comparison requirement) and each cell's fault
    schedule once (shared by both protocols, so they face the same broken
    fabric).  The convergence-delay cells replay the *same* SRLG schedule
    (group size ``srlg_sizes[0]``) under different
    ``config.convergence_delay_s`` values, so the delay axis isolates
    control-plane lag with everything else held fixed -- a 0-delay cell is
    byte-identical to the matching plain SRLG cell.

    Job keys are ``(seed, protocol.value, label)``.
    """
    _validate_axes(srlg_sizes, gray_rates, convergence_delays)
    correlated_labels(srlg_sizes, gray_rates, convergence_delays)  # rejects duplicates
    jobs: list[RunJob] = []
    topology = FatTreeTopology(config.fattree_k)
    for seed in range(config.seed, config.seed + num_seeds):
        seed_config = config.with_seed(seed)
        transfers = permutation_workload(seed_config, topology)
        start, duration = fault_window(seed_config, transfers)
        streams = RandomStreams(seed_config.seed)

        cells: list[tuple[str, Optional[FaultSchedule], ExperimentConfig]] = [
            (HEALTHY, None, seed_config)
        ]
        delay_reference: Optional[FaultSchedule] = None
        for size in srlg_sizes:
            schedule = shared_risk_group_schedule(
                topology, streams.stream(f"faults.srlg.{size}"),
                group_size=size, start_time=start, duration=duration,
            )
            if delay_reference is None:
                delay_reference = schedule
            cells.append((f"srlg-{size}", schedule, seed_config))
        cells.append((
            "rack",
            rack_power_schedule(
                topology, streams.stream("faults.rack"),
                num_racks=1, start_time=start, duration=duration,
            ),
            seed_config,
        ))
        for rate in gray_rates:
            schedule = gray_failure_schedule(
                topology, streams.stream(f"faults.gray.{rate:g}"),
                loss_probability=rate,
                affected_fraction=GRAY_AFFECTED_FRACTION,
                degrade_to=GRAY_DEGRADE_TO,
                start_time=start, duration=duration,
            )
            cells.append((f"gray-{rate:g}", schedule, seed_config))
        for delay in convergence_delays:
            cells.append((
                f"delay-{delay * 1e3:g}ms",
                delay_reference,
                replace(seed_config, convergence_delay_s=delay),
            ))

        for label, schedule, cell_config in cells:
            for protocol in protocols:
                jobs.append(
                    RunJob(
                        key=(seed, protocol.value, label),
                        protocol=protocol,
                        config=cell_config,
                        transfers=tuple(transfers),
                        fault_schedule=schedule,
                    )
                )
    return jobs


def run_correlated(
    config: ExperimentConfig | None = None,
    srlg_sizes: tuple[int, ...] = (1, 3),
    gray_rates: tuple[float, ...] = (0.01, 0.05),
    convergence_delays: tuple[float, ...] = (0.0, 0.001),
    protocols: tuple[Protocol, ...] = (Protocol.POLYRAPTOR, Protocol.TCP),
    num_seeds: int = 1,
    jobs: int = 1,
) -> CorrelatedResult:
    """Run the correlated/gray/convergence sweep, summarised per (protocol, cell).

    The healthy cell is always included -- it is the baseline the
    ``fct_vs_healthy`` ratios are computed against.  Results are
    byte-identical for every ``jobs`` value.
    """
    cfg = config or ExperimentConfig.scaled_default()
    labels = correlated_labels(srlg_sizes, gray_rates, convergence_delays)
    sweep = expand_correlated_sweep(
        cfg, srlg_sizes, gray_rates, convergence_delays, protocols, num_seeds
    )
    # Cells that are byte-identical by construction -- the delay-0 anchor
    # replays the first SRLG cell's schedule under an unchanged config --
    # simulate once and share the RunResult; the output cannot differ, only
    # the wall clock does.
    fingerprints = [
        (job.protocol, job.config, job.transfers, job.fault_schedule) for job in sweep
    ]
    unique_index: dict = {}
    unique_jobs: list[RunJob] = []
    for job, fingerprint in zip(sweep, fingerprints):
        if fingerprint not in unique_index:
            unique_index[fingerprint] = len(unique_jobs)
            unique_jobs.append(job)
    unique_runs = execute_jobs(unique_jobs, num_workers=jobs, label="correlated")
    runs = [unique_runs[unique_index[fingerprint]] for fingerprint in fingerprints]

    result = CorrelatedResult(config=cfg, labels=labels)
    by_cell: dict[tuple[str, str], list] = {}
    for job, run in zip(sweep, runs):
        _, protocol_value, label = job.key
        by_cell.setdefault((protocol_value, label), []).append(run)

    for protocol in protocols:
        healthy_median = float("inf")
        for label in labels:
            cell_runs = by_cell[(protocol.value, label)]
            records = [
                record
                for run in cell_runs
                for record in run.registry.records
                if record.label == "foreground"
            ]
            completed = [record for record in records if record.completed]
            fcts_ms = [record.flow_completion_time * 1e3 for record in completed]
            goodputs = [record.goodput_gbps for record in completed]
            fct_cdf = Cdf.from_samples(fcts_ms) if fcts_ms else None
            median = fct_cdf.median() if fct_cdf else float("inf")
            if label == HEALTHY:
                healthy_median = median
            if math.isfinite(median) and math.isfinite(healthy_median) and healthy_median > 0:
                ratio: Optional[float] = median / healthy_median
            else:
                ratio = None
            result.points[(protocol.value, label)] = CorrelatedPoint(
                protocol=protocol,
                label=label,
                completed=len(completed),
                offered=len(records),
                median_fct_ms=median,
                p90_fct_ms=fct_cdf.quantile(0.9) if fct_cdf else float("inf"),
                mean_goodput_gbps=sum(goodputs) / len(goodputs) if goodputs else 0.0,
                fct_vs_healthy=ratio,
                fault_stats=merge_counter_stats([run.fault_stats for run in cell_runs]),
            )
        result.codec_stats[protocol.value] = merge_codec_stats(
            [
                run.codec_stats
                for label in labels
                for run in by_cell[(protocol.value, label)]
            ]
        )
    profile = last_profile()
    result.exec_profile = profile.as_dict() if profile is not None else None
    return result
