"""The scenario runner: offer a workload to a protocol and collect results.

The runner is deliberately protocol-agnostic: it takes a list of
:class:`~repro.workloads.spec.TransferSpec` (generated once per seed) and
executes it either with Polyraptor sessions over a trimming/spraying fabric
or with TCP flows over a drop-tail/ECMP fabric.  Because the workload is
generated before the protocol is chosen, both protocols see byte-identical
offered traffic -- the paper's methodological requirement for a fair
comparison.

One call to :func:`run_transfers` is one *run*: a fresh simulator, network
and agent set, driven to completion, summarised as a :class:`RunResult`.
Runs are pure functions of their inputs (config, transfer list, optional
overrides), which is what lets :mod:`repro.experiments.parallel` execute
many of them in worker processes and merge the results deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig, Protocol
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.network.network import Network, NetworkConfig
from repro.network.topology import FatTreeTopology, Topology, shared_fattree
from repro.obs import FlightRecorder, MetricRegistry, TelemetrySampler
from repro.rq.backend import CodecContext
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.trace import TraceLog
from repro.transport.base import TransferRegistry
from repro.transport.polyraptor import PolyraptorAgent
from repro.transport.tcp.agent import TcpAgent
from repro.transport.tcp.multiunicast import start_multi_source_fetch, start_replicated_push
from repro.workloads.spec import TransferKind, TransferSpec


@dataclass
class RunResult:
    """Everything collected from one simulation run."""

    protocol: Protocol
    registry: TransferRegistry
    sim_time_s: float
    wall_time_s: float
    events_processed: int
    trimmed_packets: int
    dropped_packets: int
    num_hosts: int
    trace: Optional[TraceLog] = None
    metadata: dict = field(default_factory=dict)
    #: Codec-layer statistics (blocks encoded/decoded, basis lookups) for
    #: Polyraptor runs; ``None`` for TCP runs, which do no coding.
    codec_stats: Optional[dict] = None
    #: Fault-layer statistics (per-event counters, fault-caused packet drops,
    #: reroutes) when a fault schedule drove the run; ``None`` otherwise.
    fault_stats: Optional[dict] = None
    #: ECN statistics (marks, TCP echoes and reactions) when marking was
    #: enabled for the run; ``None`` otherwise, so marking-off runs keep
    #: their historical canonical snapshots byte-for-byte.
    transport_stats: Optional[dict] = None
    #: flight-recorder output (``schema``/``ticks``/``series``/``metrics``)
    #: when ``config.telemetry`` enabled the sampler; ``None`` otherwise --
    #: same conditional-presence contract as ``transport_stats``.
    telemetry: Optional[dict] = None

    @property
    def completion_fraction(self) -> float:
        """Fraction of offered transfers that completed before the run ended."""
        return self.registry.completion_fraction()

    def canonical_dict(self) -> dict:
        """A plain-data snapshot of everything deterministic about the run.

        Excludes ``wall_time_s`` (measured, never reproducible) and the
        trace.  Tests and benchmarks serialise this to assert the executor's
        determinism contract -- identical for any ``--jobs N``, transport and
        chunking -- by byte equality.  Whole-``RunResult`` pickles are *not*
        byte-stable across process boundaries (pickle encodes object
        identity, e.g. a label string shared with an enum value, which a
        round trip does not preserve); this snapshot compares by value only.
        """
        snapshot = {
            "protocol": self.protocol.value,
            "sim_time_s": self.sim_time_s,
            "events_processed": self.events_processed,
            "trimmed_packets": self.trimmed_packets,
            "dropped_packets": self.dropped_packets,
            "num_hosts": self.num_hosts,
            "metadata": dict(self.metadata),
            # Only the block counters, which the simulated traffic decides;
            # basis lookups are codec bookkeeping, not behaviour.
            "codec_stats": self.codec_stats and {
                key: self.codec_stats[key] for key in ("blocks_encoded", "blocks_decoded")
            },
            "fault_stats": self.fault_stats,
            "transfers": [
                {
                    "transfer_id": record.transfer_id,
                    "transfer_bytes": record.transfer_bytes,
                    "start_time": record.start_time,
                    "completion_time": record.completion_time,
                    "protocol": record.protocol,
                    "label": record.label,
                    "metadata": dict(record.metadata),
                }
                for record in self.registry.records
            ],
        }
        # Included only when a reactive feature ran: legacy snapshots (and
        # their fingerprints) must not change shape for feature-off runs.
        if self.transport_stats is not None:
            snapshot["transport_stats"] = self.transport_stats
        # Same contract for telemetry: absent key for telemetry-off runs.
        if self.telemetry is not None:
            snapshot["telemetry"] = self.telemetry
        return snapshot

    def goodputs_gbps(self, label: Optional[str] = "foreground") -> list[float]:
        """Goodputs of completed transfers with the given label (None = all)."""
        return self.registry.goodputs_gbps(label)


@dataclass
class _Environment:
    """A fully built simulation environment for one protocol."""

    sim: Simulator
    network: Network
    registry: TransferRegistry
    polyraptor_agents: dict[str, PolyraptorAgent]
    tcp_agents: dict[str, TcpAgent]
    codec_context: Optional[CodecContext] = None
    polyraptor_config: Optional[PolyraptorConfig] = None
    fault_injector: Optional[FaultInjector] = None
    #: telemetry wiring; all three are None for telemetry-off runs
    sampler: Optional[TelemetrySampler] = None
    recorder: Optional[FlightRecorder] = None
    metrics: Optional[MetricRegistry] = None

    def close(self) -> None:
        """Tear the run down so reference counting frees all of it at once.

        The environment owns the simulator, the network and the agents;
        the sampler and the fault injector hang off them and are reachable
        from nothing but this environment and the event heap.  Closing
        drops the pending events, retires every agent's sessions and timers,
        and unwires the fabric.  Read results out first: the network's
        counters and the agents' sessions are gone afterwards.
        """
        self.sim.close()
        for agent in (*self.polyraptor_agents.values(), *self.tcp_agents.values()):
            agent.close()
        self.network.close()


def build_environment(
    protocol: Protocol,
    config: ExperimentConfig,
    topology: Optional[Topology] = None,
    trace: Optional[TraceLog] = None,
    polyraptor_config: Optional[PolyraptorConfig] = None,
    network_config: Optional[NetworkConfig] = None,
    codec_context: Optional[CodecContext] = None,
    fault_schedule: Optional[FaultSchedule] = None,
) -> _Environment:
    """Build the simulator, network and per-host agents for one protocol.

    Args:
        protocol: which transport the agents speak.
        config: the experiment configuration (seed, fabric size, workload).
        topology: a prebuilt topology; defaults to the process's shared
            ``FatTreeTopology(k)`` (:func:`~repro.network.topology.shared_fattree`).
        trace: optional event trace collector (disabled when ``None``).
        polyraptor_config: protocol-parameter override for Polyraptor runs.
        network_config: fabric override; defaults to the protocol's standard
            fabric (trimming + spraying for Polyraptor, drop-tail + ECMP for
            TCP).  Ablations use this to run Polyraptor on non-standard
            fabrics.
        codec_context: a codec context to count this run's codec work in; a
            fresh one is created when ``None``.
        fault_schedule: optional declarative fault schedule; when non-empty a
            :class:`~repro.faults.injector.FaultInjector` is armed before any
            transfer starts, so fault events interleave deterministically
            with traffic.
    """
    sim = Simulator()
    topo = topology or shared_fattree(config.fattree_k)
    streams = RandomStreams(config.seed)
    fabric = network_config or config.network_config(protocol)
    network = Network(sim, topo, fabric, streams, trace=trace)
    fault_injector: Optional[FaultInjector] = None
    if fault_schedule is not None and len(fault_schedule) > 0:
        fault_injector = FaultInjector(sim, network, fault_schedule)
        fault_injector.start()
    registry = TransferRegistry()
    polyraptor_agents: dict[str, PolyraptorAgent] = {}
    tcp_agents: dict[str, TcpAgent] = {}
    pcfg: Optional[PolyraptorConfig] = None
    if protocol is Protocol.POLYRAPTOR:
        pcfg = polyraptor_config or config.polyraptor
        # One shared codec context per simulation: its counters cover every
        # session of every agent of the run.
        if codec_context is None:
            codec_context = CodecContext()
        for host in network.hosts:
            polyraptor_agents[host.name] = PolyraptorAgent(
                sim, host, pcfg, codec_context=codec_context
            )
    else:
        codec_context = None  # TCP does no coding; never report codec stats.
        for host in network.hosts:
            tcp_agents[host.name] = TcpAgent(sim, host)
    sampler: Optional[TelemetrySampler] = None
    recorder: Optional[FlightRecorder] = None
    metrics: Optional[MetricRegistry] = None
    tcfg = config.telemetry
    if tcfg is not None:
        # Built only when asked for: a telemetry-off run creates no sampler,
        # draws no "telemetry" stream and schedules no events, which is what
        # keeps its fingerprints byte-identical to the pre-telemetry runner.
        metrics = MetricRegistry()
        recorder = FlightRecorder(max_samples=tcfg.max_samples)
        sampler = TelemetrySampler(
            sim, recorder, tcfg, streams.stream("telemetry"), registry=metrics
        )
        sampler.attach_network(network)
        if fault_injector is not None:
            sampler.attach_faults(fault_injector)
        if tcp_agents:
            sampler.attach_tcp(tcp_agents)
        if trace is not None:
            trace.bind_registry(metrics)
        sampler.start()
    return _Environment(
        sim=sim,
        network=network,
        registry=registry,
        polyraptor_agents=polyraptor_agents,
        tcp_agents=tcp_agents,
        codec_context=codec_context,
        polyraptor_config=pcfg,
        fault_injector=fault_injector,
        sampler=sampler,
        recorder=recorder,
        metrics=metrics,
    )


def _collect_transport_stats(env: _Environment) -> Optional[dict]:
    """ECN counters for the run, or ``None`` when marking was off.

    Only a drop-tail fabric marks, so a run with marking on is a TCP run:
    its marks, its receivers' echoes and its senders' reactions, summed in
    deterministic (host-construction) order.  Marking-off runs return
    ``None`` so their results (and fingerprints) stay byte-identical to the
    pre-marking simulator.
    """
    if not env.network.config.ecn_enabled:
        return None
    ecn_echoes = ecn_reactions = 0
    for agent in env.tcp_agents.values():
        for receiver in agent.all_receivers:
            ecn_echoes += receiver.ecn_echoes
        for sender in agent.all_senders:
            ecn_reactions += sender.ecn_reactions
    return {
        "ecn_marks": env.network.total_ecn_marked,
        "ecn_echoes": ecn_echoes,
        "ecn_reactions": ecn_reactions,
    }


def _collect_telemetry(env: _Environment) -> Optional[dict]:
    """The run's flight-recorder output, or ``None`` for telemetry-off runs.

    Besides the sampler's time series, the end-of-run fold fills an
    ``fct_ms`` histogram from the transfer registry (completed transfers
    only, in registry order) so distributions survive even when the series
    ring buffers evicted their history.  Everything returned is plain data,
    so the snapshot pickles across worker boundaries and merges
    byte-identically for any ``--jobs`` value.
    """
    if env.sampler is None or env.metrics is None or env.recorder is None:
        return None
    fct_hist = env.metrics.histogram("fct_ms")
    for record in env.registry.records:
        if record.completed:
            fct_hist.observe(record.flow_completion_time * 1e3)
    return {
        "schema": 1,
        "ticks": env.sampler.ticks,
        "series": env.recorder.as_dict(),
        "metrics": env.metrics.snapshot(),
    }


def _object_payload(spec: TransferSpec) -> bytes:
    """Deterministic pseudo-random object bytes for payload-carrying runs."""
    rng = np.random.default_rng(spec.transfer_id + 0x5EED)
    return rng.integers(0, 256, spec.size_bytes, dtype=np.uint8).tobytes()


def _start_polyraptor_transfer(
    env: _Environment, spec: TransferSpec, on_complete: Callable[[float], None]
) -> None:
    network = env.network
    agents = env.polyraptor_agents
    peer_ids = [network.host_id(peer) for peer in spec.peers]
    carry_payload = env.polyraptor_config is not None and env.polyraptor_config.carry_payload
    if spec.kind is TransferKind.FETCH:
        if carry_payload:
            payload = _object_payload(spec)
            for peer in spec.peers:
                agents[peer].store_object(spec.transfer_id, payload)
        agents[spec.client].start_fetch_session(
            spec.transfer_id, spec.size_bytes, peer_ids, on_complete=on_complete
        )
        return
    multicast_group = None
    if spec.kind is TransferKind.REPLICATE and len(spec.peers) > 1:
        network.create_multicast_group(spec.transfer_id, spec.client, list(spec.peers))
        multicast_group = spec.transfer_id
    agents[spec.client].start_push_session(
        spec.transfer_id,
        spec.size_bytes,
        peer_ids,
        multicast_group=multicast_group,
        object_data=_object_payload(spec) if carry_payload else None,
        on_complete=on_complete,
    )


def _start_tcp_transfer(
    env: _Environment, spec: TransferSpec, on_complete: Callable[[float], None]
) -> None:
    network = env.network
    agents = env.tcp_agents
    flow_base = spec.transfer_id * 1000
    if spec.kind is TransferKind.UNICAST:
        agents[spec.client].start_flow(
            flow_base, network.host_id(spec.peers[0]), spec.size_bytes, on_complete=on_complete
        )
    elif spec.kind is TransferKind.REPLICATE:
        start_replicated_push(
            agents[spec.client],
            [network.host_id(peer) for peer in spec.peers],
            spec.size_bytes,
            transfer_id=spec.transfer_id,
            flow_id_base=flow_base,
            on_complete=on_complete,
        )
    elif spec.kind is TransferKind.FETCH:
        start_multi_source_fetch(
            [agents[peer] for peer in spec.peers],
            network.host_id(spec.client),
            spec.size_bytes,
            transfer_id=spec.transfer_id,
            flow_id_base=flow_base,
            on_complete=on_complete,
        )
    else:
        raise ValueError(f"unsupported transfer kind {spec.kind!r}")


def _start_transfer(env: _Environment, protocol: Protocol, spec: TransferSpec) -> None:
    """Record one transfer's start and hand it to the protocol that serves it.

    The runner is the only writer of the transfer registry: each agent just
    fires the ``on_complete`` it was given, once, when the transfer ends.
    """
    env.registry.record_start(
        spec.transfer_id, spec.size_bytes, env.sim.now,
        protocol=protocol.value, label=spec.label,
    )
    on_complete = partial(env.registry.record_completion, spec.transfer_id)
    if protocol is Protocol.POLYRAPTOR:
        _start_polyraptor_transfer(env, spec, on_complete)
    else:
        _start_tcp_transfer(env, spec, on_complete)


def offer_transfers(env: _Environment, protocol: Protocol, transfers: Sequence[TransferSpec]) -> None:
    """Schedule every transfer of the workload at its start time."""
    for spec in transfers:
        env.sim.schedule_at(spec.start_time, _start_transfer, env, protocol, spec)


def run_transfers(
    protocol: Protocol,
    config: ExperimentConfig,
    transfers: Sequence[TransferSpec],
    topology: Optional[Topology] = None,
    trace: Optional[TraceLog] = None,
    polyraptor_config: Optional[PolyraptorConfig] = None,
    network_config: Optional[NetworkConfig] = None,
    codec_context: Optional[CodecContext] = None,
    fault_schedule: Optional[FaultSchedule] = None,
) -> RunResult:
    """Run one workload under one protocol and return the collected results.

    This is the single entry point every experiment goes through -- directly
    when sequential, or inside a worker process when sharded through
    :func:`repro.experiments.parallel.execute_jobs`.  See
    :func:`build_environment` for the meaning of the optional overrides.
    The environment is closed on every exit path, returning or raising, so
    a campaign of runs in one process does not grow in memory.
    """
    env = build_environment(protocol, config, topology=topology, trace=trace,
                            polyraptor_config=polyraptor_config,
                            network_config=network_config,
                            codec_context=codec_context,
                            fault_schedule=fault_schedule)
    try:
        offer_transfers(env, protocol, transfers)
        wall_start = time.perf_counter()
        env.sim.run(until=config.max_sim_time_s)
        wall_time = time.perf_counter() - wall_start
        return RunResult(
            protocol=protocol,
            registry=env.registry,
            sim_time_s=env.sim.now,
            wall_time_s=wall_time,
            events_processed=env.sim.events_processed,
            trimmed_packets=env.network.total_trimmed_packets,
            dropped_packets=env.network.total_dropped_packets,
            num_hosts=env.network.num_hosts,
            trace=trace,
            codec_stats=env.codec_context.stats_dict() if env.codec_context else None,
            fault_stats=env.fault_injector.stats_dict() if env.fault_injector else None,
            transport_stats=_collect_transport_stats(env),
            telemetry=_collect_telemetry(env),
        )
    finally:
        env.close()


def run_unicast_demo(
    protocol: Protocol = Protocol.POLYRAPTOR,
    object_bytes: int = 1_000_000,
    config: Optional[ExperimentConfig] = None,
) -> RunResult:
    """A one-transfer demonstration run (used by the quickstart example and docs)."""
    cfg = config or ExperimentConfig.quick()
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
    return run_transfers(protocol, cfg, [spec], topology=topology)
