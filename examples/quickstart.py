#!/usr/bin/env python3
"""Quickstart: ship real bytes over Polyraptor and decode them at the receiver.

This example runs the full stack in *payload mode*: the sender RaptorQ-encodes
an actual byte string, the symbols cross a simulated FatTree (trimming
switches, per-packet spraying), and the receiver decodes the object and checks
it matches.  It then runs the same transfer over the TCP baseline for
comparison.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import os

from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.runner import run_unicast_demo
from repro.network.network import Network
from repro.network.topology import FatTreeTopology
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.transport.polyraptor import PolyraptorAgent
from repro.utils.units import format_rate


def polyraptor_payload_transfer(object_size: int = 200_000) -> None:
    """End-to-end transfer of real bytes, decoded and verified at the receiver."""
    print(f"== Polyraptor payload-mode transfer of {object_size} bytes ==")
    data = os.urandom(object_size)

    sim = Simulator()
    topology = FatTreeTopology(4)
    config = ExperimentConfig().network_config(Protocol.POLYRAPTOR)
    network = Network(sim, topology, config, RandomStreams(1))
    protocol_config = PolyraptorConfig(
        carry_payload=True, symbol_size_bytes=512, max_symbols_per_block=64
    )
    agents = {
        host.name: PolyraptorAgent(sim, host, protocol_config)
        for host in network.hosts
    }

    sender, receiver = "h0", "h15"
    finished: list[float] = []  # the session's on_complete appends its end time
    agents[sender].start_push_session(
        1, len(data), [network.host_id(receiver)], object_data=data,
        on_complete=finished.append,
    )
    sim.run(until=5.0)

    session = agents[receiver].receiver_session(1).core
    print(f"  completed      : {bool(finished)}")
    if finished:
        print(f"  goodput        : {format_rate(len(data) * 8 / finished[0])}")
    print(f"  symbols received: {session.symbols_received} "
          f"(trimmed headers seen: {session.trimmed_received})")
    print(f"  decoded bytes match original: {session.received_data == data}")
    print()


def compare_with_tcp(object_size: int = 1_000_000) -> None:
    """The same unicast transfer under Polyraptor and the TCP baseline."""
    print(f"== Unicast {object_size // 1000} kB transfer: Polyraptor vs TCP ==")
    for protocol in (Protocol.POLYRAPTOR, Protocol.TCP):
        result = run_unicast_demo(protocol, object_bytes=object_size)
        goodput = result.goodputs_gbps()[0]
        print(f"  {protocol.value:<12} goodput {goodput:.3f} Gbps "
              f"(events simulated: {result.events_processed})")
    print()


def main() -> None:
    polyraptor_payload_transfer()
    compare_with_tcp()


if __name__ == "__main__":
    main()
