"""Incast experiment: fan-in sweep with the congestion-reaction loop on vs off.

The Figure 1c experiment (:mod:`repro.experiments.figure1c`) measures incast
*goodput* collapse.  This experiment closes the loop the reactive features of
the simulator add on top of that fabric: ECN/PCN marking on switch queues,
DCTCP-style ECE echo and cwnd reaction for TCP, TFRC equation-based pacing
and gray-failure detection for Polyraptor.  It sweeps fan-in (how many
workers answer one aggregator at the same instant) crossed with the reaction
loop off (the historical simulator, byte-identical to pre-reaction runs) and
on, for both protocols, and reports the FCT tail -- incast pathology lives in
p99, where drop-tail overflow turns into 200 ms retransmission timeouts.

Every (seed, fan-in, marking, protocol) is an independent
:class:`~repro.experiments.parallel.RunJob`: the workload is generated once
per (seed, fan-in) and shared by every cell that uses it, and all reaction
knobs ride inside the job's :class:`~repro.experiments.config.ExperimentConfig`
(``ecn_enabled`` plus the ``tfrc_pacing``/``gray_detection`` Polyraptor
fields), so the sweep shards over ``--jobs N`` workers with byte-identical
output for any N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import RunJob, execute_jobs, last_profile
from repro.experiments.report import merge_codec_stats, merge_counter_stats
from repro.network.topology import FatTreeTopology
from repro.sim.randomness import RandomStreams
from repro.utils.cdf import Cdf
from repro.workloads.incast import incast_transfers

#: Cell-label suffix of the reaction-off baseline each ratio is computed against.
MARK_OFF = "mark-off"
MARK_ON = "mark-on"


@dataclass(frozen=True)
class IncastPoint:
    """One protocol's outcome in one (fan-in, marking) cell (pooled across seeds)."""

    protocol: Protocol
    label: str
    num_senders: int
    marking: bool
    completed: int
    offered: int
    median_fct_ms: float
    p90_fct_ms: float
    p99_fct_ms: float
    mean_goodput_gbps: float
    #: median FCT divided by the same protocol's and fan-in's marking-off
    #: median; ``None`` for marking-off cells themselves and whenever either
    #: median is undefined (no completed transfers).
    fct_vs_unmarked: Optional[float]
    #: merged congestion-reaction counters; ``None`` for marking-off cells
    #: (every reactive feature off -> runs carry no transport stats).
    transport_stats: Optional[dict]

    @property
    def completion_fraction(self) -> float:
        """Fraction of offered transfers that completed."""
        return self.completed / self.offered if self.offered else 0.0


@dataclass
class IncastResult:
    """The full incast sweep: (fan-in x marking) cells x protocols."""

    config: ExperimentConfig
    #: cell labels in sweep order (fanin-N/mark-off, fanin-N/mark-on, ...)
    labels: tuple[str, ...] = ()
    #: points[(protocol.value, label)]
    points: dict[tuple[str, str], IncastPoint] = field(default_factory=dict)
    #: per-protocol codec counters merged across every cell and seed
    codec_stats: dict[str, Optional[dict]] = field(default_factory=dict)
    #: Executor accounting for the sweep (see
    #: :class:`~repro.experiments.parallel.ExecutorProfile`).
    exec_profile: Optional[dict] = None

    def point(self, protocol: Protocol, label: str) -> IncastPoint:
        """The summary for one (protocol, cell) pair."""
        return self.points[(protocol.value, label)]


def incast_labels(fanins: tuple[int, ...]) -> tuple[str, ...]:
    """Cell labels in sweep order; shared by expansion and reporting."""
    labels = []
    for fanin in fanins:
        labels.append(f"fanin-{fanin}/{MARK_OFF}")
        labels.append(f"fanin-{fanin}/{MARK_ON}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate sweep cells in {labels}")
    return tuple(labels)


def _validate_axes(fanins: tuple[int, ...], response_bytes: int) -> None:
    if not fanins:
        raise ValueError("fanins cannot be empty")
    if any(fanin < 1 for fanin in fanins):
        raise ValueError(f"fan-ins must be positive integers, got {fanins}")
    if response_bytes <= 0:
        raise ValueError(f"response_bytes must be positive, got {response_bytes}")


def reactive_config(config: ExperimentConfig) -> ExperimentConfig:
    """A copy of ``config`` with the full reaction loop switched on.

    ECN marking on both fabrics, TFRC pacing and gray-failure detection for
    Polyraptor (the TCP side's ECE reaction is on by default and becomes
    active the moment the fabric marks).
    """
    return replace(
        config,
        ecn_enabled=True,
        polyraptor=replace(
            config.polyraptor, tfrc_pacing=True, gray_detection=True
        ),
    )


def expand_incast_sweep(
    config: ExperimentConfig,
    fanins: tuple[int, ...],
    response_bytes: int,
    protocols: tuple[Protocol, ...],
    num_seeds: int,
) -> list[RunJob]:
    """Expand seeds x (fan-in x marking) x protocols into fully-by-value jobs.

    Per (seed, fan-in) the incast episode is generated once and shared by
    every marking setting and protocol (the fair-comparison requirement: every
    cell of a fan-in sees byte-identical offered traffic).  The marking-on
    cells differ only in their config -- ``ecn_enabled`` plus the Polyraptor
    ``tfrc_pacing``/``gray_detection`` fields -- which rides inside the job.

    Job keys are ``(seed, protocol.value, label)``.
    """
    _validate_axes(fanins, response_bytes)
    incast_labels(fanins)  # rejects duplicates
    jobs: list[RunJob] = []
    topology = FatTreeTopology(config.fattree_k)
    max_fanin = len(topology.hosts) - 1
    if max(fanins) > max_fanin:
        raise ValueError(
            f"k={config.fattree_k} FatTree supports fan-in <= {max_fanin}, got {max(fanins)}"
        )
    for seed in range(config.seed, config.seed + num_seeds):
        seed_config = config.with_seed(seed)
        marked_config = reactive_config(seed_config)
        streams = RandomStreams(seed_config.seed)
        for fanin in fanins:
            _, transfers = incast_transfers(
                topology,
                fanin,
                response_bytes,
                streams.stream(f"incast.{fanin}"),
                first_transfer_id=1,
            )
            cells = [
                (f"fanin-{fanin}/{MARK_OFF}", seed_config),
                (f"fanin-{fanin}/{MARK_ON}", marked_config),
            ]
            for label, cell_config in cells:
                for protocol in protocols:
                    jobs.append(
                        RunJob(
                            key=(seed, protocol.value, label),
                            protocol=protocol,
                            config=cell_config,
                            transfers=tuple(transfers),
                        )
                    )
    return jobs


def run_incast(
    config: ExperimentConfig | None = None,
    fanins: tuple[int, ...] = (4, 8, 15),
    response_bytes: int = 64 * 1024,
    protocols: tuple[Protocol, ...] = (Protocol.POLYRAPTOR, Protocol.TCP),
    num_seeds: int = 1,
    jobs: int = 1,
) -> IncastResult:
    """Run the incast fan-in x marking sweep, summarised per (protocol, cell).

    Each fan-in's marking-off cell is the baseline its ``fct_vs_unmarked``
    ratio is computed against.  Results are byte-identical for every ``jobs``
    value.
    """
    cfg = config or ExperimentConfig.scaled_default()
    labels = incast_labels(fanins)
    sweep = expand_incast_sweep(cfg, fanins, response_bytes, protocols, num_seeds)
    runs = execute_jobs(sweep, num_workers=jobs, label="incast")

    result = IncastResult(config=cfg, labels=labels)
    by_cell: dict[tuple[str, str], list] = {}
    for job, run in zip(sweep, runs):
        _, protocol_value, label = job.key
        by_cell.setdefault((protocol_value, label), []).append(run)

    for protocol in protocols:
        unmarked_median: dict[int, float] = {}
        for fanin in fanins:
            for marking in (False, True):
                suffix = MARK_ON if marking else MARK_OFF
                label = f"fanin-{fanin}/{suffix}"
                cell_runs = by_cell[(protocol.value, label)]
                records = [
                    record
                    for run in cell_runs
                    for record in run.registry.records
                    if record.label == "incast"
                ]
                completed = [record for record in records if record.completed]
                fcts_ms = [record.flow_completion_time * 1e3 for record in completed]
                goodputs = [record.goodput_gbps for record in completed]
                fct_cdf = Cdf.from_samples(fcts_ms) if fcts_ms else None
                median = fct_cdf.median() if fct_cdf else float("inf")
                ratio: Optional[float] = None
                if not marking:
                    unmarked_median[fanin] = median
                else:
                    baseline = unmarked_median.get(fanin, float("inf"))
                    if math.isfinite(median) and math.isfinite(baseline) and baseline > 0:
                        ratio = median / baseline
                result.points[(protocol.value, label)] = IncastPoint(
                    protocol=protocol,
                    label=label,
                    num_senders=fanin,
                    marking=marking,
                    completed=len(completed),
                    offered=len(records),
                    median_fct_ms=median,
                    p90_fct_ms=fct_cdf.quantile(0.9) if fct_cdf else float("inf"),
                    p99_fct_ms=fct_cdf.quantile(0.99) if fct_cdf else float("inf"),
                    mean_goodput_gbps=sum(goodputs) / len(goodputs) if goodputs else 0.0,
                    fct_vs_unmarked=ratio,
                    transport_stats=merge_counter_stats(
                        [run.transport_stats for run in cell_runs]
                    ),
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
