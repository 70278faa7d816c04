"""Path-resilience experiment: Polyraptor vs TCP on a degrading fabric.

The paper's central claim is that fountain coding over *redundant*
data-centre paths makes the transport robust to path loss: symbols are
sprayed per packet, any symbol repairs any loss, and no individual path
matters.  The original evaluation never tests that story -- every run uses a
static, healthy fat-tree.  This experiment injects seeded fault schedules
(:mod:`repro.faults`) of increasing intensity while an identical permutation
workload runs, and compares how each protocol's flow-completion times degrade
relative to its own healthy baseline.  Per-flow-ECMP TCP pins each flow to
one path for its lifetime, so a failed or lossy link starves the unlucky
flows; Polyraptor routes around damage packet by packet.  (The PCN line of
related work motivates the same comparison for loss-signalling regimes:
trimming switches keep signalling under degraded capacity, drop-tail
switches go silent.)

Every (seed, intensity, protocol) cell is an independent
:class:`~repro.experiments.parallel.RunJob` -- fault schedules are immutable
value objects generated in the parent -- so the sweep shards over
``--jobs N`` workers with byte-identical output for any N.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import RunJob
from repro.experiments.report import fct_columns
from repro.experiments.sweep import (
    SweepResult,
    cell_jobs,
    fct_points,
    keyed_cells,
    run_sweep,
    seed_configs,
)
from repro.faults.schedule import FaultSchedule, random_fault_schedule
from repro.network.network import NetworkConfig
from repro.network.topology import FatTreeTopology
from repro.sim.randomness import RandomStreams
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.spec import TransferKind, TransferSpec
from repro.workloads.traffic_matrix import repeated_permutation_pairs


#: How :func:`repro.experiments.report.format_sweep` renders the result: one
#: row per (protocol, intensity), the ratio against the same protocol's
#: healthy (intensity 0) cell, then the per-cell fault counters.
TABLE = dict(
    title="Resilience -- FCT degradation under injected faults",
    columns=fct_columns(("intensity", lambda point: f"{point.cell:.2f}"), "vs healthy"),
    counters="fault_stats",
)


def permutation_workload(
    config: ExperimentConfig, topology: FatTreeTopology
) -> list[TransferSpec]:
    """A permutation unicast workload, identical for every protocol and cell.

    Shared by the resilience and correlated experiments -- the paper's
    fair-comparison requirement is that every protocol and failure cell of
    a seed sees byte-identical offered traffic.
    """
    streams = RandomStreams(config.seed)
    rng = streams.stream("resilience")
    arrivals = PoissonArrivals(config.arrival_rate_per_second).times(
        config.num_foreground_transfers, rng
    )
    pairs = repeated_permutation_pairs(
        topology.hosts, config.num_foreground_transfers, rng
    )
    return [
        TransferSpec(
            transfer_id=index,
            kind=TransferKind.UNICAST,
            client=src,
            peers=(dst,),
            size_bytes=config.object_bytes,
            start_time=start,
            label="foreground",
        )
        for index, ((src, dst), start) in enumerate(zip(pairs, arrivals))
    ]


def fault_window(config: ExperimentConfig, transfers: list[TransferSpec]) -> tuple[float, float]:
    """When faults strike: a window matched to the run's busy period.

    The busy period is the arrival span plus a congestion-slack estimate of
    one transfer's service time, so the window tracks how long traffic is
    actually in flight -- the schedule builders place fault onsets
    in the first third of the window, which lands them on live transfers
    rather than an idle or already-drained fabric.
    """
    last_arrival = max(spec.start_time for spec in transfers) if transfers else 0.0
    # 4x the ideal serialisation time leaves room for queueing, pull pacing
    # and the fault-lengthened paths themselves.
    service_slack = 4.0 * config.object_bytes * 8 / NetworkConfig.link_rate_bps
    busy = last_arrival + service_slack
    duration = min(config.max_sim_time_s, max(0.002, 1.2 * busy))
    return 0.0, duration


def expand_resilience_sweep(
    config: ExperimentConfig,
    intensities: tuple[float, ...],
    protocols: tuple[Protocol, ...],
    num_seeds: int,
) -> list[RunJob]:
    """Expand seeds x intensities x protocols into fully-by-value jobs.

    The workload is generated once per seed (shared by every intensity and
    protocol, the paper's fair-comparison requirement) and the fault schedule
    once per (seed, intensity) (shared by both protocols, so they face the
    same broken fabric).
    """
    jobs: list[RunJob] = []
    topology = FatTreeTopology(config.fattree_k)
    for seed_config in seed_configs(config, num_seeds):
        transfers = permutation_workload(seed_config, topology)
        start, duration = fault_window(seed_config, transfers)
        fault_streams = RandomStreams(seed_config.seed)
        for intensity in intensities:
            schedule: FaultSchedule = random_fault_schedule(
                topology,
                fault_streams.stream(f"faults.intensity.{intensity}"),
                intensity,
                start_time=start,
                duration=duration,
            )
            jobs += cell_jobs(intensity, seed_config, transfers, protocols, schedule)
    return jobs


def run_resilience(
    config: ExperimentConfig | None = None,
    intensities: tuple[float, ...] = (0.0, 0.3, 0.6, 1.0),
    protocols: tuple[Protocol, ...] = (Protocol.POLYRAPTOR, Protocol.TCP),
    num_seeds: int = 1,
    jobs: int = 1,
) -> SweepResult:
    """Run the full degradation sweep and summarise it per (protocol, intensity).

    Intensity 0.0 (the healthy fabric) is always included -- it is the
    baseline the ``fct_vs_baseline`` ratios are computed against.  Results
    are byte-identical for every ``jobs`` value.
    """
    cfg = config or ExperimentConfig.scaled_default()
    levels = tuple(sorted(set(intensities) | {0.0}))
    sweep = expand_resilience_sweep(cfg, levels, protocols, num_seeds)
    result = run_sweep("resilience", keyed_cells(sweep), jobs)
    result.points = fct_points(result.runs, "foreground", baseline_of=lambda intensity: 0.0)
    return result
