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

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import RunJob, execute_jobs, last_profile
from repro.experiments.report import merge_codec_stats, merge_counter_stats
from repro.faults.schedule import FaultSchedule, random_fault_schedule
from repro.network.topology import FatTreeTopology
from repro.sim.randomness import RandomStreams
from repro.utils.cdf import Cdf
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.spec import TransferKind, TransferSpec
from repro.workloads.traffic_matrix import repeated_permutation_pairs


@dataclass(frozen=True)
class ResiliencePoint:
    """One protocol's outcome at one fault intensity (pooled across seeds)."""

    protocol: Protocol
    intensity: float
    completed: int
    offered: int
    median_fct_ms: float
    p90_fct_ms: float
    mean_goodput_gbps: float
    #: median FCT divided by the same protocol's intensity-0 median FCT;
    #: ``None`` when either median is undefined (no completed transfers)
    fct_vs_healthy: Optional[float]
    fault_stats: Optional[dict]

    @property
    def completion_fraction(self) -> float:
        """Fraction of offered transfers that completed."""
        return self.completed / self.offered if self.offered else 0.0


@dataclass
class ResilienceResult:
    """The full degradation sweep: intensities x protocols."""

    config: ExperimentConfig
    intensities: tuple[float, ...] = ()
    #: points[(protocol.value, intensity)]
    points: dict[tuple[str, float], ResiliencePoint] = field(default_factory=dict)
    #: per-protocol codec counters merged across every intensity and seed
    codec_stats: dict[str, Optional[dict]] = field(default_factory=dict)
    #: Executor accounting for the sweep (see
    #: :class:`~repro.experiments.parallel.ExecutorProfile`).
    exec_profile: Optional[dict] = None

    def point(self, protocol: Protocol, intensity: float) -> ResiliencePoint:
        """The summary for one (protocol, intensity) cell."""
        return self.points[(protocol.value, intensity)]


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
    service_slack = 4.0 * config.object_bytes * 8 / config.link_rate_bps
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
    for seed in range(config.seed, config.seed + num_seeds):
        seed_config = config.with_seed(seed)
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
            for protocol in protocols:
                jobs.append(
                    RunJob(
                        key=(seed, protocol.value, intensity),
                        protocol=protocol,
                        config=seed_config,
                        transfers=tuple(transfers),
                        fault_schedule=schedule,
                    )
                )
    return jobs


def run_resilience(
    config: ExperimentConfig | None = None,
    intensities: tuple[float, ...] = (0.0, 0.3, 0.6, 1.0),
    protocols: tuple[Protocol, ...] = (Protocol.POLYRAPTOR, Protocol.TCP),
    num_seeds: int = 1,
    jobs: int = 1,
) -> ResilienceResult:
    """Run the full degradation sweep and summarise it per (protocol, intensity).

    Intensity 0.0 (the healthy fabric) is always included -- it is the
    baseline the ``fct_vs_healthy`` ratios are computed against.  Results are
    byte-identical for every ``jobs`` value.
    """
    cfg = config or ExperimentConfig.scaled_default()
    levels = tuple(sorted(set(intensities) | {0.0}))
    sweep = expand_resilience_sweep(cfg, levels, protocols, num_seeds)
    runs = execute_jobs(sweep, num_workers=jobs, label="resilience")

    result = ResilienceResult(config=cfg, intensities=levels)
    by_cell: dict[tuple[str, float], list] = {}
    for job, run in zip(sweep, runs):
        _, protocol_value, intensity = job.key
        by_cell.setdefault((protocol_value, intensity), []).append(run)

    healthy_median: dict[str, float] = {}
    for protocol in protocols:
        for intensity in levels:
            cell_runs = by_cell[(protocol.value, intensity)]
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
            if intensity == 0.0:
                healthy_median[protocol.value] = median
            baseline = healthy_median.get(protocol.value, float("inf"))
            if math.isfinite(median) and math.isfinite(baseline) and baseline > 0:
                ratio: Optional[float] = median / baseline
            else:
                # No completed transfers in this cell or in the healthy
                # baseline: a degradation ratio is undefined, not 0x or infx.
                ratio = None
            result.points[(protocol.value, intensity)] = ResiliencePoint(
                protocol=protocol,
                intensity=intensity,
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
                for intensity in levels
                for run in by_cell[(protocol.value, intensity)]
            ]
        )
    profile = last_profile()
    result.exec_profile = profile.as_dict() if profile is not None else None
    return result
