"""Ablations of the design choices the paper's Section 2 argues for.

These do not correspond to a figure in the (2-page) paper, but each one
isolates a claim made in the text:

* **A1 trimming**      -- "Packet trimming along with RQ coding provide
  resilience against transient and persistent congestion": run the Incast
  scenario with trimming switches vs. drop-tail switches under Polyraptor.
* **A2 spraying**      -- "symbols can be sprayed in the network, exploiting
  all available (equal-cost) paths": permutation traffic under per-packet
  spraying vs. per-flow ECMP vs. a single path.
* **A3 RQ overhead**   -- footnote 2: decoding succeeds with K + 2 symbols
  with overwhelming probability: measure decode failure rates at overheads
  0, 1 and 2 using the real codec.
* **A4 initial window**-- the first-RTT line-rate window: single-session
  goodput as a function of the initial window size.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from typing import Callable

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.metrics import aggregate_goodput_gbps
from repro.experiments.parallel import RunJob
from repro.experiments.runner import RunResult
from repro.experiments.sweep import run_sweep
from repro.network.network import DATA_QUEUE_CAPACITY_PACKETS, NetworkConfig
from repro.network.routing import RoutingMode
from repro.network.topology import FatTreeTopology
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.sim.randomness import RandomStreams
from repro.utils.units import KILOBYTE
from repro.workloads.incast import incast_transfers
from repro.workloads.spec import TransferKind, TransferSpec
from repro.workloads.traffic_matrix import permutation_pairs


@dataclass(frozen=True)
class AblationPoint:
    """One configuration of an ablation and the goodput it achieved."""

    label: str
    goodput_gbps: float
    trimmed_packets: int = 0
    dropped_packets: int = 0


def _ablation_points(
    label: str, sweep: list[RunJob], jobs: int, goodput_of: Callable[[RunResult], float]
) -> list[AblationPoint]:
    """Run one ablation's configurations (job key = its label) into points."""
    runs = run_sweep(label, [((job.key, None), job) for job in sweep], jobs).runs
    return [
        AblationPoint(
            label=configuration,
            goodput_gbps=goodput_of(run),
            trimmed_packets=run.trimmed_packets,
            dropped_packets=run.dropped_packets,
        )
        for (configuration, _), (run,) in runs.items()
    ]


def trimming_ablation(
    config: ExperimentConfig | None = None,
    num_senders: int = 12,
    response_bytes: int = 256 * KILOBYTE,
    jobs: int = 1,
) -> list[AblationPoint]:
    """A1: Polyraptor Incast goodput with trimming switches vs drop-tail switches."""
    cfg = config or ExperimentConfig.scaled_default()
    topology = FatTreeTopology(cfg.fattree_k)
    streams = RandomStreams(cfg.seed)
    _, transfers = incast_transfers(
        topology, num_senders, response_bytes, streams.stream("incast"), label="incast"
    )
    sweep = [
        RunJob(
            key=label,
            protocol=Protocol.POLYRAPTOR,
            config=cfg,
            transfers=tuple(transfers),
            network_config=NetworkConfig(
                switch_queue=queue,
                droptail_capacity_packets=DATA_QUEUE_CAPACITY_PACKETS,
                routing_mode=RoutingMode.PACKET_SPRAY,
            ),
        )
        for label, queue in (("trimming", "trimming"), ("droptail", "droptail"))
    ]
    return _ablation_points(
        "ablation-trimming", sweep, jobs,
        lambda run: aggregate_goodput_gbps(run.registry, "incast"),
    )


def spraying_ablation(
    config: ExperimentConfig | None = None,
    num_transfers: int | None = None,
    jobs: int = 1,
) -> list[AblationPoint]:
    """A2: permutation traffic under spraying vs per-flow ECMP vs a single path."""
    cfg = config or ExperimentConfig.scaled_default()
    topology = FatTreeTopology(cfg.fattree_k)
    streams = RandomStreams(cfg.seed)
    rng = streams.stream("permutation")
    pairs = permutation_pairs(topology.hosts, rng)
    if num_transfers is not None:
        pairs = pairs[:num_transfers]
    transfers = tuple(
        TransferSpec(
            transfer_id=index,
            kind=TransferKind.UNICAST,
            client=src,
            peers=(dst,),
            size_bytes=cfg.object_bytes,
            start_time=0.0,
            label="foreground",
        )
        for index, (src, dst) in enumerate(pairs)
    )
    sweep = [
        RunJob(
            key=mode.value,
            protocol=Protocol.POLYRAPTOR,
            config=cfg,
            transfers=transfers,
            network_config=NetworkConfig(switch_queue="trimming", routing_mode=mode),
        )
        for mode in (RoutingMode.PACKET_SPRAY, RoutingMode.ECMP_FLOW, RoutingMode.SINGLE_PATH)
    ]
    def mean_goodput(run: RunResult) -> float:
        goodputs = run.goodputs_gbps("foreground")
        return sum(goodputs) / len(goodputs) if goodputs else 0.0

    return _ablation_points("ablation-spraying", sweep, jobs, mean_goodput)


@dataclass(frozen=True)
class OverheadPoint:
    """Decode failure rate at one symbol overhead."""

    overhead: int
    trials: int
    failures: int

    @property
    def failure_rate(self) -> float:
        """Fraction of trials whose decode failed."""
        return self.failures / self.trials if self.trials else 0.0


def rq_overhead_ablation(
    num_source_symbols: int = 32,
    symbol_size: int = 64,
    trials: int = 30,
    overheads: tuple[int, ...] = (0, 1, 2),
    loss_fraction: float = 0.3,
    seed: int = 7,
) -> list[OverheadPoint]:
    """A3: decode failure probability vs received-symbol overhead (real codec).

    Each trial encodes a random block, drops ``loss_fraction`` of the source
    symbols and replaces them with repair symbols so the receiver holds
    exactly ``K + overhead`` symbols, then attempts to decode.
    """
    rng = random.Random(seed)
    source = [os.urandom(symbol_size) for _ in range(num_source_symbols)]
    encoder = BlockEncoder(source)
    points = []
    for overhead in overheads:
        failures = 0
        for _ in range(trials):
            keep = [
                esi
                for esi in range(num_source_symbols)
                if rng.random() > loss_fraction
            ]
            needed = num_source_symbols + overhead - len(keep)
            repair_start = num_source_symbols + rng.randint(0, 10_000)
            repair = list(range(repair_start, repair_start + needed))
            decoder = BlockDecoder(num_source_symbols, symbol_size)
            for esi in keep + repair:
                decoder.add_symbol(esi, encoder.symbol(esi))
            if not decoder.decode().success:
                failures += 1
        points.append(OverheadPoint(overhead=overhead, trials=trials, failures=failures))
    return points


def initial_window_ablation(
    config: ExperimentConfig | None = None,
    window_sizes: tuple[int, ...] = (2, 6, 12, 18, 24),
    object_bytes: int = 1_000_000,
    jobs: int = 1,
) -> list[AblationPoint]:
    """A4: single-session goodput as a function of the initial window size."""
    cfg = config or ExperimentConfig.scaled_default()
    topology = FatTreeTopology(cfg.fattree_k)
    hosts = topology.hosts
    spec = TransferSpec(
        transfer_id=1,
        kind=TransferKind.UNICAST,
        client=hosts[0],
        peers=(hosts[-1],),
        size_bytes=object_bytes,
        start_time=0.0,
        label="foreground",
    )
    sweep = [
        RunJob(
            key=f"window={window}",
            protocol=Protocol.POLYRAPTOR,
            config=replace(
                cfg, polyraptor=replace(cfg.polyraptor, initial_window_symbols=window)
            ),
            transfers=(spec,),
        )
        for window in window_sizes
    ]
    def session_goodput(run: RunResult) -> float:
        goodputs = run.goodputs_gbps("foreground")
        return goodputs[0] if goodputs else 0.0

    return _ablation_points("ablation-window", sweep, jobs, session_goodput)
