"""Golden ``canonical_dict()`` fingerprints: event-for-event identity across commits.

The determinism tests elsewhere compare two runs *of the same code* (jobs 1
vs. 4, sim driver vs. net driver).  This file pins the sha256 of
``RunResult.canonical_dict()`` -- which contains ``events_processed``, every
completion time and every drop/trim counter -- for a small k=4 matrix, so a
change to the engine or the fabric that fires one callback more, less or in a
different ``(time, seq)`` order, or shifts one RNG draw, fails here even
though it is self-consistent.

The hashes were captured on the commit *before* the hot-path rewrite of
``sim/engine.py`` and ``network/`` (PR 15).  Re-capture them only for a
change that is *meant* to alter simulated behaviour, and say so:

    PYTHONPATH=src python tests/experiments/test_golden_fingerprints.py
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.resilience import permutation_workload
from repro.experiments.runner import run_transfers
from repro.faults.schedule import FaultSchedule, link_down, link_loss, link_up
from repro.network.routing import RoutingMode
from repro.network.topology import FatTreeTopology
from repro.obs.config import TelemetryConfig
from repro.sim.trace import TraceLog
from repro.utils.units import KILOBYTE
from repro.workloads.spec import TransferKind, TransferSpec

TOPOLOGY = FatTreeTopology(4)

CONFIG = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=16,
    object_bytes=96 * KILOBYTE,
    background_fraction=0.0,
    offered_load=4.0,
    seed=7,
    max_sim_time_s=10.0,
)


def _group_transfers(kind: TransferKind) -> list[TransferSpec]:
    """Four overlapping one-to-four (or four-to-one) sessions across pods."""
    hosts = TOPOLOGY.hosts
    return [
        TransferSpec(transfer_id=index, kind=kind, client=hosts[client],
                     peers=tuple(hosts[(client + step) % len(hosts)] for step in (3, 6, 9, 13)),
                     size_bytes=128 * KILOBYTE, start_time=index * 5e-5, label="foreground")
        for index, client in enumerate((0, 5, 10, 15))
    ]


def _fault_schedule() -> FaultSchedule:
    """One aggregation->core link down mid-run and back, over fabric-wide gray loss."""
    edges = sorted(TOPOLOGY.graph.edges)
    switches = set(TOPOLOGY.switches)
    a, b = next(edge for edge in edges if edge[0] in switches and edge[1] in switches)
    events = [link_loss(0.0, x, y, 0.02, cause="gray") for x, y in edges]
    events += [link_down(4e-4, a, b, cause="cut"), link_up(3e-3, a, b, cause="cut")]
    return FaultSchedule.ordered(events)


def _cell(name: str):
    """(protocol, config, transfers, run_transfers kwargs) of one matrix cell."""
    protocol = Protocol.TCP if name.startswith("tcp") else Protocol.POLYRAPTOR
    config, kwargs = CONFIG, {}
    kind = name.split("-", 1)[1]
    if kind == "multicast":
        transfers = _group_transfers(TransferKind.REPLICATE)
    elif kind == "fetch":
        transfers = _group_transfers(TransferKind.FETCH)
    else:
        transfers = permutation_workload(config, TOPOLOGY)
    if kind in ("ecmp", "spray", "single"):
        mode = {"ecmp": RoutingMode.ECMP_FLOW, "spray": RoutingMode.PACKET_SPRAY,
                "single": RoutingMode.SINGLE_PATH}[kind]
        kwargs["network_config"] = replace(config.network_config(protocol), routing_mode=mode)
    elif kind == "faults":
        config = replace(config, convergence_delay_s=2e-4)
        kwargs["fault_schedule"] = _fault_schedule()
    elif kind == "ecn":
        config = replace(config, ecn_enabled=True)
    elif kind == "telemetry":
        config = replace(config, telemetry=TelemetryConfig(sample_period_s=1e-3))
    elif kind == "payload":
        kwargs["polyraptor_config"] = PolyraptorConfig(carry_payload=True)
        kwargs["fault_schedule"] = FaultSchedule.ordered(
            [link_loss(0.0, x, y, 0.01, cause="gray") for x, y in sorted(TOPOLOGY.graph.edges)])
        transfers = transfers[:2]
    return protocol, config, transfers, kwargs


def run_cell(name: str, trace: TraceLog | None = None):
    protocol, config, transfers, kwargs = _cell(name)
    return run_transfers(protocol, config, transfers, topology=TOPOLOGY, trace=trace, **kwargs)


@functools.cache
def untraced(name: str):
    """One untraced run per cell, shared by the tests that only read it."""
    return run_cell(name)


def fingerprint(result) -> str:
    text = json.dumps(result.canonical_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_fingerprint(trace: TraceLog) -> str:
    """sha256 of the recorded events, minus process-global packet ids."""
    events = [
        (event.time, event.category,
         sorted((k, v) for k, v in event.details.items() if k != "packet"))
        for event in trace.events
    ]
    return hashlib.sha256(json.dumps(events, default=repr).encode("utf-8")).hexdigest()


#: cell -> sha256(canonical_dict()), captured on the parent of PR 15.  The
#: nine Polyraptor hashes were re-captured in PR 22 and again in PR 23, neither
#: of which changed simulated behaviour: every Polyraptor cell embeds
#: ``codec_stats``, which lost two keys in PR 22 and whose ``kernel`` name went
#: ``blocked`` -> ``bitplane`` in PR 23 (the parent's dict with only that
#: string replaced hashes to the values below, payload cell included).  With
#: ``codec_stats`` left out, every cell hashes the same across all three
#: commits (CHANGES.md has the tables).
GOLDEN = {
    "polyraptor-unicast": "bc5786ac99205c5f805f582064218b6f58ad19b8139393c814f2f94f1bdf05ef",
    "polyraptor-multicast": "ac32707cceb2a02b314ffbacf817903d2d1177cdc48c1df64dc7188894b6555f",
    "polyraptor-fetch": "97638cbc93fe651d77b4dd3cdc7685c38c5ca2346e08cc62604bb693c040b1b8",
    "polyraptor-ecmp": "1e63a7c15320258a3f05f8476d122b0115ac8419b3444ec8226a88a0c6703a30",
    "polyraptor-single": "15c067bfce185b25fd5f0ed2747364eae0e0937806f9c88879f8db164c2cf7ae",
    "polyraptor-faults": "d2a75beafb3727568aac026537bc3dc4cdaa36a3c18e22589a2305c303354db2",
    "polyraptor-ecn": "bd80b1fa5ee2447c1b406d8ee757ab21be3807bb4fbd4d3160d2f3920380d52d",
    "polyraptor-telemetry": "e36a2fab8300877de27e83dc5fbbafeb3d4cecb2ec288de1968254af37ccdb79",
    "polyraptor-payload": "9c6ab77fbfac357e5b0cd77350b857a47de902ac05cf1e6b61ded110fd1e1cfa",
    "tcp-unicast": "a5bdd55f40cab0e32e770db48e12668a31564b003b91a12716051e445c8745d5",
    "tcp-multicast": "1ce845de89b0690143144976085779be2da505c195459e9fd4f11782e14ad012",
    "tcp-fetch": "bd26c01dabfd1a72b972a48f53d234cb04aee39c2d42248e51756c4ea98a07d1",
    "tcp-spray": "40674a256108971dac79fcfde16bc977a023c9b7d57f7ffe75e92460402a1c41",
    "tcp-faults": "743d54d465f65d61575ca3d194022c7232bf8fdcf35c4531cd06cfa96a4a5d2c",
    "tcp-ecn": "5dea93ba0e4c3f5bd0ce5f8bf6a2b7dc811411ad2efda65dcf47a384dc3f41cc",
}

#: cells re-run with an enabled TraceLog -> sha256 of the trace itself.
GOLDEN_TRACES = {
    "polyraptor-multicast": "26085408cddbb4e281f8514dcc3e9768b6b3ebe1b399a17ceece6ff6915e9e0b",
    "polyraptor-faults": "eccc33c8699af040083f74446f3f1735408ce6d91f0b1c53037a019a0e9dc946",
    "tcp-unicast": "326a39bddcf02692b6eee6542e3bde1bb8076a1ee3cf0a2b44c9d743c1ecc146",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cell_reproduces_its_golden_fingerprint(name):
    assert fingerprint(untraced(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_enabled_trace_changes_nothing_and_records_the_same_events(name):
    trace = TraceLog(enabled=True)
    result = run_cell(name, trace=trace)
    assert fingerprint(result) == GOLDEN[name]
    assert len(trace) > 0
    assert trace_fingerprint(trace) == GOLDEN_TRACES[name]


def test_matrix_exercises_what_it_claims_to():
    """Guard the matrix itself: trims, drops, fault drops and marks all occur."""
    assert untraced("polyraptor-multicast").trimmed_packets > 0
    assert untraced("tcp-unicast").dropped_packets > 0
    faults = untraced("polyraptor-faults").fault_stats
    assert faults["packets_dropped_link_down"] > 0 and faults["packets_dropped_random_loss"] > 0
    assert faults["route_installs"] == 2
    assert untraced("polyraptor-ecn").transport_stats["ecn_marks"] > 0
    assert untraced("tcp-ecn").transport_stats["ecn_reactions"] > 0


if __name__ == "__main__":  # re-capture: prints the two tables to paste above
    print("GOLDEN = {")
    for cell in GOLDEN:
        print(f'    "{cell}": "{fingerprint(run_cell(cell))}",')
    print("}\nGOLDEN_TRACES = {")
    for cell in GOLDEN_TRACES:
        log = TraceLog(enabled=True)
        run_cell(cell, trace=log)
        print(f'    "{cell}": "{trace_fingerprint(log)}",')
    print("}")
