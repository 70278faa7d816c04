"""Mixed-workload experiment (the paper's "different workloads" direction).

The discussion section of the paper says the authors are "evaluating
Polyraptor's behaviour under different workloads".  This module provides that
experiment: instead of the fixed 4 MB objects of Figure 1, transfer sizes are
drawn from a heavy-tailed (bounded Pareto) distribution, mixing
latency-sensitive short flows with large elephants.  The report separates
short and long transfers so the effect of the systematic prefix (no decoding
latency for short, loss-free flows) and of receiver pacing (elephants cannot
starve mice) is visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.sweep import protocol_cells, run_sweep
from repro.network.network import NetworkConfig
from repro.network.topology import FatTreeTopology
from repro.sim.randomness import RandomStreams
from repro.utils.cdf import Cdf
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.flowsize import ParetoSize
from repro.workloads.spec import TransferKind, TransferSpec
from repro.workloads.traffic_matrix import repeated_permutation_pairs


@dataclass(frozen=True)
class WorkloadMixResult:
    """Per-protocol summary of the heavy-tailed workload run."""

    protocol: Protocol
    short_median_fct_ms: float
    short_p90_fct_ms: float
    long_median_goodput_gbps: float
    completion_fraction: float


def _heavy_tailed_transfers(
    config: ExperimentConfig,
    num_transfers: int,
    min_bytes: int,
    max_bytes: int,
    shape: float,
    short_threshold_bytes: int,
) -> tuple[FatTreeTopology, list[TransferSpec]]:
    topology = FatTreeTopology(config.fattree_k)
    streams = RandomStreams(config.seed)
    rng = streams.stream("workload-mix")
    sizes = ParetoSize(min_bytes, max_bytes, shape=shape)
    mean_size = sum(sizes.sample(rng) for _ in range(200)) / 200
    rate = config.offered_load * config.num_hosts * NetworkConfig.link_rate_bps / (8 * mean_size)
    arrivals = PoissonArrivals(rate).times(num_transfers, rng)
    pairs = repeated_permutation_pairs(topology.hosts, num_transfers, rng)
    transfers = []
    for index, ((src, dst), start) in enumerate(zip(pairs, arrivals)):
        size = sizes.sample(rng)
        transfers.append(
            TransferSpec(
                transfer_id=index,
                kind=TransferKind.UNICAST,
                client=src,
                peers=(dst,),
                size_bytes=size,
                start_time=start,
                label="short" if size <= short_threshold_bytes else "long",
            )
        )
    return topology, transfers


def run_workload_mix(
    config: ExperimentConfig | None = None,
    num_transfers: int = 40,
    min_bytes: int = 20_000,
    max_bytes: int = 2_000_000,
    shape: float = 1.2,
    short_threshold_bytes: int = 100_000,
    protocols: tuple[Protocol, ...] = (Protocol.POLYRAPTOR, Protocol.TCP),
    jobs: int = 1,
) -> dict[Protocol, WorkloadMixResult]:
    """Run the heavy-tailed permutation workload under each protocol."""
    cfg = config or ExperimentConfig.scaled_default()
    _, transfers = _heavy_tailed_transfers(
        cfg, num_transfers, min_bytes, max_bytes, shape, short_threshold_bytes
    )
    sweep = run_sweep("workload-mix", protocol_cells(cfg, transfers, protocols), jobs)
    results: dict[Protocol, WorkloadMixResult] = {}
    for protocol in protocols:
        (run,) = sweep.runs[(protocol.value, None)]
        short_fcts = [
            record.flow_completion_time * 1e3
            for record in run.registry.completed_records
            if record.label == "short"
        ]
        long_goodputs = run.registry.goodputs_gbps("long")
        short_cdf = Cdf.from_samples(short_fcts) if short_fcts else None
        long_cdf = Cdf.from_samples(long_goodputs) if long_goodputs else None
        results[protocol] = WorkloadMixResult(
            protocol=protocol,
            short_median_fct_ms=short_cdf.median() if short_cdf else float("inf"),
            short_p90_fct_ms=short_cdf.quantile(0.9) if short_cdf else float("inf"),
            long_median_goodput_gbps=long_cdf.median() if long_cdf else 0.0,
            completion_fraction=run.completion_fraction,
        )
    return results


#: How :func:`repro.experiments.report.format_table` renders the results.
TABLE = dict(
    title="Workload-mix extension -- heavy-tailed (bounded Pareto) transfer sizes",
    columns=(
        ("protocol", lambda result: result.protocol.value),
        ("short median FCT ms", lambda result: f"{result.short_median_fct_ms:.3f}"),
        ("short p90 FCT ms", lambda result: f"{result.short_p90_fct_ms:.3f}"),
        ("long median Gbps", lambda result: f"{result.long_median_goodput_gbps:.3f}"),
        ("completed", lambda result: f"{result.completion_fraction:.2f}"),
    ),
)
