"""Figure 1c: Incast -- goodput vs number of parallel senders.

A classic Incast scenario with synchronised short flows: ``n`` workers answer
one aggregator at the same instant with a 256 KB or 70 KB response.  The
figure plots the goodput achieved at the aggregator against the number of
senders, with 95% confidence intervals over repetitions with different seeds.

TCP collapses (drop-tail overflow -> timeouts -> the receiver link sits idle
for RTO-scale gaps); Polyraptor's trimming, rateless symbols and receiver
pacing keep goodput near line rate regardless of the sender count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.metrics import aggregate_goodput_gbps, mean_with_confidence
from repro.experiments.parallel import RunJob, run_job
from repro.experiments.sweep import keyed_cells, run_sweep, seed_configs
from repro.network.topology import FatTreeTopology
from repro.sim.randomness import RandomStreams
from repro.utils.units import KILOBYTE
from repro.workloads.incast import incast_transfers


def series_label(protocol: Protocol, response_bytes: int) -> str:
    """Legend label for one (protocol, response size) series, e.g. "RQ 256KB"."""
    short = "RQ" if protocol is Protocol.POLYRAPTOR else "TCP"
    return f"{short} {response_bytes // KILOBYTE}KB"


@dataclass(frozen=True)
class IncastPoint:
    """One point of Figure 1c: mean goodput and CI for one sender count."""

    num_senders: int
    mean_goodput_gbps: float
    ci95_gbps: float
    samples: tuple[float, ...]


@dataclass
class Figure1cResult:
    """Every series of Figure 1c, plus per-series merged codec counters."""

    config: ExperimentConfig
    series: dict[str, list[IncastPoint]] = field(default_factory=dict)
    codec_stats: dict[str, Optional[dict]] = field(default_factory=dict)
    #: Executor accounting for the sweep (see
    #: :class:`~repro.experiments.parallel.ExecutorProfile`).
    exec_profile: Optional[dict] = None

    def points(self, protocol: Protocol, response_bytes: int) -> list[IncastPoint]:
        """The points of one series."""
        return self.series[series_label(protocol, response_bytes)]


def incast_job(
    protocol: Protocol,
    config: ExperimentConfig,
    num_senders: int,
    response_bytes: int,
    seed: int,
) -> RunJob:
    """Describe one Incast episode as an executable job."""
    cfg = config.with_seed(seed)
    topology = FatTreeTopology(cfg.fattree_k)
    streams = RandomStreams(seed)
    _, transfers = incast_transfers(
        topology,
        num_senders=num_senders,
        response_bytes=response_bytes,
        rng=streams.stream("incast"),
        start_time=0.0,
        label="incast",
    )
    return RunJob(
        key=(seed, series_label(protocol, response_bytes), num_senders),
        protocol=protocol,
        config=cfg,
        transfers=tuple(transfers),
    )


def run_incast_point(
    protocol: Protocol,
    config: ExperimentConfig,
    num_senders: int,
    response_bytes: int,
    seed: int,
) -> float:
    """Run one Incast episode and return the aggregate goodput at the receiver.

    Convenience wrapper (used by the examples) over the same job-execution
    path the sharded sweep uses.
    """
    run = run_job(incast_job(protocol, config, num_senders, response_bytes, seed))
    return aggregate_goodput_gbps(run.registry, "incast")


def run_figure1c(
    config: ExperimentConfig | None = None,
    sender_counts: tuple[int, ...] = (1, 2, 4, 8, 12),
    response_sizes: tuple[int, ...] = (256 * KILOBYTE, 70 * KILOBYTE),
    protocols: tuple[Protocol, ...] = (Protocol.POLYRAPTOR, Protocol.TCP),
    num_seeds: int = 3,
    jobs: int = 1,
) -> Figure1cResult:
    """Run the Incast sweep.

    The paper sweeps 1-70 senders on a 250-host fabric with 5 seeds; the
    defaults here are scaled to the 16-host test fabric (sender counts capped
    by the host count) and 3 seeds, which already exhibit the collapse-vs-flat
    contrast.  Pass larger values to approach the paper's exact sweep.

    This is the widest sweep of the suite (protocols x sizes x sender counts
    x seeds independent episodes), so it parallelises best: pass ``jobs=N``
    to shard the episodes over N worker processes with identical results.
    """
    cfg = config or ExperimentConfig.scaled_default()
    max_senders = cfg.num_hosts - 1
    seeds = [seed_config.seed for seed_config in seed_configs(cfg, num_seeds)]
    sweep = [
        incast_job(protocol, cfg, num_senders, response_bytes, seed)
        for protocol in protocols
        for response_bytes in response_sizes
        for num_senders in sender_counts
        if num_senders <= max_senders
        for seed in seeds
    ]
    ran = run_sweep("figure1c", keyed_cells(sweep), jobs)

    result = Figure1cResult(
        config=cfg, codec_stats=ran.codec_stats, exec_profile=ran.exec_profile
    )
    for (label, num_senders), cell_runs in ran.runs.items():
        samples = tuple(aggregate_goodput_gbps(run.registry, "incast") for run in cell_runs)
        mean, ci = mean_with_confidence(samples)
        result.series.setdefault(label, []).append(
            IncastPoint(
                num_senders=num_senders,
                mean_goodput_gbps=mean,
                ci95_gbps=ci,
                samples=samples,
            )
        )
    return result
