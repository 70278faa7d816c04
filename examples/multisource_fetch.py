#!/usr/bin/env python3
"""Multi-source fetch study (the scenario behind Figure 1b).

A storage client fetches an object that is stored on several replica servers.
Polyraptor pulls statistically unique symbols from every replica at once --
each replica contributes at whatever rate its uplink allows (natural load
balancing, no coordination).  The example shows:

1. a single fetch session with per-sender contribution counts, including what
   happens when one replica is busy serving other traffic, and
2. the scaled-down Figure 1b comparison against the TCP emulation
   (uncoordinated 1/N shares).

Run with:  python examples/multisource_fetch.py
"""

from __future__ import annotations

from repro.core.agent import PolyraptorAgent
from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.figure1b import run_figure1b
from repro.experiments.report import format_rank_figure
from repro.network.network import Network
from repro.network.topology import FatTreeTopology
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.transport.base import TransferRegistry
from repro.utils.units import KILOBYTE


def single_fetch_with_a_busy_replica() -> None:
    """Show per-sender load balancing when one replica has less spare capacity."""
    print("== One fetch, three replicas, one of them busy ==")
    sim = Simulator()
    topology = FatTreeTopology(4)
    network = Network(
        sim, topology, ExperimentConfig().network_config(Protocol.POLYRAPTOR), RandomStreams(3)
    )
    registry = TransferRegistry()
    agents = {
        host.name: PolyraptorAgent(sim, host, PolyraptorConfig(), registry)
        for host in network.hosts
    }

    replicas = ["h4", "h8", "h12"]
    # h4 is also pushing a large object elsewhere, so it has little spare uplink.
    agents["h4"].start_push_session(99, 800_000, [network.host_id("h9")], label="cross")
    agents["h0"].start_fetch_session(
        1, 800_000, [network.host_id(name) for name in replicas], label="fetch"
    )
    sim.run(until=5.0)

    record = registry.get(1)
    print(f"  fetch completed: {record.completed}, goodput {record.goodput_gbps:.3f} Gbps")
    for name in replicas:
        session = agents[name].sender_session(1).core
        note = " (busy with another transfer)" if name == "h4" else ""
        print(f"    {name}: contributed {session.symbols_sent} symbols{note}")
    print()


def figure1b_comparison() -> None:
    """Scaled-down Figure 1b: rank-curve summary for 1 and 3 senders, RQ vs TCP."""
    print("== Figure 1b (scaled down): multi-source fetch ==")
    config = ExperimentConfig(
        fattree_k=4,
        num_foreground_transfers=20,
        object_bytes=128 * KILOBYTE,
        offered_load=0.15,
        max_sim_time_s=30.0,
    )
    result = run_figure1b(config, sender_counts=(1, 3))
    print(format_rank_figure(result, "goodput summary per series"))
    rq1 = result.summary(Protocol.POLYRAPTOR, 1).mean_gbps
    rq3 = result.summary(Protocol.POLYRAPTOR, 3).mean_gbps
    print()
    print(f"  Polyraptor with 3 senders vs 1 sender: x{rq3 / rq1:.2f} "
          "(fetching from more replicas never hurts)")


def main() -> None:
    single_fetch_with_a_busy_replica()
    figure1b_comparison()


if __name__ == "__main__":
    main()
