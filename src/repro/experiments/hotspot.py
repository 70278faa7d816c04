"""Network-hotspot experiment (the paper's "current work" direction).

The discussion section of the paper lists "the existence of network hotspots"
as an evaluation in progress.  This module provides that experiment: a set of
aggressor hosts continuously blast long transfers at a single victim rack,
creating persistent congestion on the paths through that rack's uplinks,
while a measured set of permutation transfers runs across the rest of the
fabric.  Per-packet spraying lets Polyraptor route around the hot links on a
packet-by-packet basis; per-flow ECMP pins an unlucky TCP flow to a hot path
for its entire lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.sweep import protocol_cells, run_sweep
from repro.network.topology import FatTreeTopology
from repro.sim.randomness import RandomStreams
from repro.workloads.spec import TransferKind, TransferSpec


@dataclass(frozen=True)
class HotspotResult:
    """Outcome of one protocol's run under a hotspot."""

    protocol: Protocol
    mean_goodput_gbps: float
    p10_goodput_gbps: float
    completion_fraction: float
    trimmed_packets: int
    dropped_packets: int


def _hotspot_workload(
    config: ExperimentConfig,
    num_measured: int,
    num_aggressors: int,
    aggressor_bytes: int,
) -> tuple[FatTreeTopology, list[TransferSpec]]:
    """Build the measured permutation transfers plus the aggressor transfers."""
    topology = FatTreeTopology(config.fattree_k)
    streams = RandomStreams(config.seed)
    rng = streams.stream("hotspot")
    hosts = topology.hosts

    # The victim rack: every aggressor targets hosts in this one rack, so its
    # uplinks (and the core links feeding them) become persistently hot.
    victim_rack_hosts = topology.hosts_in_same_rack(hosts[-1])
    aggressor_candidates = [h for h in hosts if h not in victim_rack_hosts]
    aggressors = rng.sample(aggressor_candidates, min(num_aggressors, len(aggressor_candidates)))

    transfers: list[TransferSpec] = []
    for index, aggressor in enumerate(aggressors):
        victim = victim_rack_hosts[index % len(victim_rack_hosts)]
        transfers.append(
            TransferSpec(
                transfer_id=1000 + index,
                kind=TransferKind.UNICAST,
                client=aggressor,
                peers=(victim,),
                size_bytes=aggressor_bytes,
                start_time=0.0,
                label="hotspot",
                is_background=True,
            )
        )

    # Measured transfers: a permutation round over the non-victim hosts,
    # started shortly after the hotspot is established.
    measured_hosts = [h for h in hosts if h not in victim_rack_hosts]
    shuffled = rng.sample(measured_hosts, len(measured_hosts))
    pairs = list(zip(shuffled, shuffled[1:] + shuffled[:1]))[:num_measured]
    for index, (src, dst) in enumerate(pairs):
        transfers.append(
            TransferSpec(
                transfer_id=index,
                kind=TransferKind.UNICAST,
                client=src,
                peers=(dst,),
                size_bytes=config.object_bytes,
                start_time=0.0005,
                label="measured",
            )
        )
    return topology, transfers


def run_hotspot_experiment(
    config: ExperimentConfig | None = None,
    num_measured: int = 8,
    num_aggressors: int = 6,
    aggressor_bytes: int = 2_000_000,
    protocols: tuple[Protocol, ...] = (Protocol.POLYRAPTOR, Protocol.TCP),
    jobs: int = 1,
) -> dict[Protocol, HotspotResult]:
    """Run the hotspot scenario under each protocol and summarise the measured flows."""
    cfg = config or ExperimentConfig.scaled_default()
    _, transfers = _hotspot_workload(cfg, num_measured, num_aggressors, aggressor_bytes)
    sweep = run_sweep("hotspot", protocol_cells(cfg, transfers, protocols), jobs)
    results: dict[Protocol, HotspotResult] = {}
    for protocol in protocols:
        (run,) = sweep.runs[(protocol.value, None)]
        goodputs = sorted(run.goodputs_gbps("measured"))
        mean = sum(goodputs) / len(goodputs) if goodputs else 0.0
        measured_records = [r for r in run.registry.records if r.label == "measured"]
        completed = sum(1 for r in measured_records if r.completed)
        results[protocol] = HotspotResult(
            protocol=protocol,
            mean_goodput_gbps=mean,
            p10_goodput_gbps=goodputs[0] if goodputs else 0.0,
            completion_fraction=completed / len(measured_records) if measured_records else 0.0,
            trimmed_packets=run.trimmed_packets,
            dropped_packets=run.dropped_packets,
        )
    return results


#: How :func:`repro.experiments.report.format_table` renders the results.
TABLE = dict(
    title="Hotspot extension -- measured permutation flows sharing the fabric with a hot rack",
    columns=(
        ("protocol", lambda result: result.protocol.value),
        ("mean Gbps", lambda result: f"{result.mean_goodput_gbps:.3f}"),
        ("worst Gbps", lambda result: f"{result.p10_goodput_gbps:.3f}"),
        ("completed", lambda result: f"{result.completion_fraction:.2f}"),
    ),
)
