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

from dataclasses import replace
from typing import Optional

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import RunJob
from repro.experiments.report import fct_columns
from repro.experiments.resilience import fault_window, permutation_workload
from repro.experiments.sweep import (
    SweepResult,
    cell_jobs,
    fct_points,
    keyed_cells,
    run_sweep,
    seed_configs,
)
from repro.faults.schedule import (
    FaultSchedule,
    gray_failure_schedule,
    rack_power_schedule,
    shared_risk_group_schedule,
)
from repro.network.topology import FatTreeTopology
from repro.sim.randomness import RandomStreams

#: Cell label of the healthy baseline every ratio is computed against.
HEALTHY = "healthy"

#: Fraction of fabric links a gray-failure cell smears loss over.
LOSSY_LINK_FRACTION = 0.5
#: Mild serialisation slowdown gray links suffer on top of the loss.
LOSSY_LINK_DEGRADE_TO = 0.85


#: How :func:`repro.experiments.report.format_sweep` renders the result: one
#: row per (protocol, cell) in sweep order -- healthy baseline, SRLG sizes,
#: rack power, gray-loss rates, convergence delays -- with the ratio against
#: the same protocol's healthy cell, then the per-cell fault counters.
TABLE = dict(
    title="Correlated & gray failures -- FCT degradation with convergence lag",
    columns=fct_columns(("cell", lambda point: point.cell), "vs healthy"),
    counters="fault_stats",
)


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
    for seed_config in seed_configs(config, num_seeds):
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
                affected_fraction=LOSSY_LINK_FRACTION,
                degrade_to=LOSSY_LINK_DEGRADE_TO,
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
            jobs += cell_jobs(label, cell_config, transfers, protocols, schedule)
    return jobs


def run_correlated(
    config: ExperimentConfig | None = None,
    srlg_sizes: tuple[int, ...] = (1, 3),
    gray_rates: tuple[float, ...] = (0.01, 0.05),
    convergence_delays: tuple[float, ...] = (0.0, 0.001),
    protocols: tuple[Protocol, ...] = (Protocol.POLYRAPTOR, Protocol.TCP),
    num_seeds: int = 1,
    jobs: int = 1,
) -> SweepResult:
    """Run the correlated/gray/convergence sweep, summarised per (protocol, cell).

    The healthy cell is always included -- it is the baseline the
    ``fct_vs_baseline`` ratios are computed against.  The delay-0 anchor
    replays the first SRLG cell's schedule under an unchanged config, so
    :func:`~repro.experiments.sweep.run_sweep` simulates the pair once.
    Results are byte-identical for every ``jobs`` value.
    """
    cfg = config or ExperimentConfig.scaled_default()
    sweep = expand_correlated_sweep(
        cfg, srlg_sizes, gray_rates, convergence_delays, protocols, num_seeds
    )
    result = run_sweep("correlated", keyed_cells(sweep), jobs)
    result.points = fct_points(result.runs, "foreground", baseline_of=lambda label: HEALTHY)
    return result
