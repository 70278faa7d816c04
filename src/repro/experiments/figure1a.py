"""Figure 1a: goodput vs session rank for the replication (multicast) scenario.

The paper's setup: a distributed-storage client stores an object on 1 or 3
replica servers chosen outside its rack.  Polyraptor replicates through a
multicast session; TCP emulates replication by multi-unicasting the object to
every replica.  The figure plots per-session goodput against the session's
rank (slowest first) for the four series:

    1 Replica RQ, 3 Replicas RQ, 1 Replica TCP, 3 Replicas TCP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.metrics import SeriesSummary
from repro.experiments.parallel import RunJob
from repro.experiments.runner import RunResult
from repro.experiments.sweep import run_sweep, seed_configs
from repro.network.topology import FatTreeTopology
from repro.sim.randomness import RandomStreams
from repro.utils.cdf import rank_curve
from repro.workloads.background import background_transfers
from repro.workloads.spec import TransferKind
from repro.workloads.storage import StorageWorkload


def series_label(protocol: Protocol, num_replicas: int) -> str:
    """The legend label used by the paper for one (protocol, replicas) series."""
    noun = "Replica" if num_replicas == 1 else "Replicas"
    short = "RQ" if protocol is Protocol.POLYRAPTOR else "TCP"
    return f"{num_replicas} {noun} {short}"


@dataclass
class RankFigureResult:
    """All four series of a rank figure (1a or 1b) plus summaries and run stats.

    ``series`` and ``summaries`` pool every repetition; ``runs`` holds the
    base seed's run per series, and ``codec_stats`` the per-series codec
    counters merged across seeds with
    :func:`~repro.experiments.report.merge_codec_stats`.
    """

    config: ExperimentConfig
    #: names the series of one (protocol, replica/sender count) pair
    label_of: Callable[[Protocol, int], str] = series_label
    series: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    summaries: dict[str, SeriesSummary] = field(default_factory=dict)
    runs: dict[str, RunResult] = field(default_factory=dict)
    codec_stats: dict[str, Optional[dict]] = field(default_factory=dict)
    #: Executor accounting for the sweep (see
    #: :class:`~repro.experiments.parallel.ExecutorProfile`); never affects
    #: the measured series, only explains where the wall clock went.
    exec_profile: Optional[dict] = None

    def summary(self, protocol: Protocol, count: int) -> SeriesSummary:
        """Summary of one (protocol, replica/sender count) series."""
        return self.summaries[self.label_of(protocol, count)]


def generate_workload(
    config: ExperimentConfig,
    num_replicas: int,
    kind: TransferKind = TransferKind.REPLICATE,
):
    """Generate the (protocol-independent) workload for one replica count.

    The same seed produces the same clients, replica placements and arrival
    times regardless of the protocol, so RQ and TCP are offered identical
    traffic.
    """
    topology = FatTreeTopology(config.fattree_k)
    streams = RandomStreams(config.seed)
    workload = StorageWorkload(
        kind=kind,
        num_replicas=num_replicas,
        object_bytes=config.object_bytes,
        arrival_rate_per_second=config.arrival_rate_per_second,
    )
    foreground = workload.generate(
        topology,
        config.num_foreground_transfers,
        streams.stream(f"storage.{kind.value}.{num_replicas}"),
        first_transfer_id=0,
        label="foreground",
    )
    background = background_transfers(
        topology,
        config.num_background_transfers,
        config.object_bytes,
        config.arrival_rate_per_second,
        streams.stream("background"),
        first_transfer_id=len(foreground),
    )
    return topology, foreground + background


def expand_sweep(
    config: ExperimentConfig,
    replica_counts: tuple[int, ...],
    protocols: tuple[Protocol, ...],
    num_seeds: int,
    kind: TransferKind = TransferKind.REPLICATE,
    label_of: Callable[[Protocol, int], str] = series_label,
) -> list[RunJob]:
    """Expand the figure's seeds x replica-counts x protocols sweep into jobs.

    Workloads are generated in the parent (once per seed and replica count,
    shared by both protocols) so every job is fully described by value and
    can be executed in any process.  ``label_of(protocol, count)`` names the
    series; Figure 1b reuses this with its own labels and the FETCH kind.
    """
    jobs: list[RunJob] = []
    for seed_config in seed_configs(config, num_seeds):
        for num_replicas in replica_counts:
            _, transfers = generate_workload(seed_config, num_replicas, kind)
            for protocol in protocols:
                jobs.append(
                    RunJob(
                        key=(seed_config.seed, label_of(protocol, num_replicas)),
                        protocol=protocol,
                        config=seed_config,
                        transfers=tuple(transfers),
                    )
                )
    return jobs


def run_rank_figure(
    label: str,
    config: ExperimentConfig | None,
    counts: tuple[int, ...],
    protocols: tuple[Protocol, ...],
    num_seeds: int,
    jobs: int,
    kind: TransferKind,
    label_of: Callable[[Protocol, int], str],
) -> RankFigureResult:
    """Run one rank figure's sweep and reduce it to rank curves (Figures 1a/1b).

    Goodputs are pooled across seeds per series (the paper's rank curves plot
    per-session goodput, so repetitions simply contribute more sessions).
    """
    cfg = config or ExperimentConfig.scaled_default()
    sweep = expand_sweep(cfg, counts, protocols, num_seeds, kind, label_of)
    ran = run_sweep(label, [((job.key[1], None), job) for job in sweep], jobs)
    result = RankFigureResult(
        config=cfg,
        label_of=label_of,
        codec_stats=ran.codec_stats,
        exec_profile=ran.exec_profile,
    )
    for (series, _), series_runs in ran.runs.items():
        result.runs[series] = series_runs[0]
        goodputs = [g for run in series_runs for g in run.goodputs_gbps("foreground")]
        result.series[series] = rank_curve(goodputs)
        if goodputs:
            result.summaries[series] = SeriesSummary.from_goodputs(series, goodputs)
    return result


def run_figure1a(
    config: ExperimentConfig | None = None,
    replica_counts: tuple[int, ...] = (1, 3),
    protocols: tuple[Protocol, ...] = (Protocol.POLYRAPTOR, Protocol.TCP),
    num_seeds: int = 1,
    jobs: int = 1,
) -> RankFigureResult:
    """Run every series of Figure 1a and return the rank curves.

    Args:
        config: base configuration (its ``seed`` is the first repetition).
        replica_counts: replica counts to sweep (the paper uses 1 and 3).
        protocols: transports to compare.
        num_seeds: repetitions; goodputs are pooled across seeds per series.
        jobs: worker processes to shard the sweep across (1 = in-process);
            results are identical for every value, see
            :mod:`repro.experiments.parallel`.
    """
    return run_rank_figure("figure1a", config, replica_counts, protocols, num_seeds,
                           jobs, TransferKind.REPLICATE, series_label)
