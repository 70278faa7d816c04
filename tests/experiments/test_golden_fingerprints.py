"""Golden ``canonical_dict()`` fingerprints: event-for-event identity across commits.

The determinism tests elsewhere compare two runs *of the same code* (jobs 1
vs. 4, sim driver vs. net driver).  This file pins the sha256 of
``RunResult.canonical_dict()`` -- which contains ``events_processed``, every
completion time and every drop/trim counter -- for a small k=4 matrix, so a
change to the engine or the fabric that fires one callback more, less or in a
different ``(time, seq)`` order, or shifts one RNG draw, fails here even
though it is self-consistent.

Beside each hash, ``golden/<cell>.json`` holds the snapshot it was taken
of (sorted JSON), so a mismatch fails with a field-level diff instead of two
opaque hashes.  Re-capture both only for a change that is *meant* to alter
simulated behaviour, and say so:

    PYTHONPATH=src python tests/experiments/test_golden_fingerprints.py
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import replace
from pathlib import Path

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

#: golden/<cell>.json: the canonical_dict() each GOLDEN hash was taken of
SNAPSHOTS = Path(__file__).resolve().parent / "golden"

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


def snapshot(result) -> dict:
    """``canonical_dict()`` as the fingerprint sees it (non-JSON values as repr)."""
    return json.loads(json.dumps(result.canonical_dict(), sort_keys=True, default=repr))


def fingerprint(result) -> str:
    text = json.dumps(snapshot(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def field_diff(golden, actual, path: str = "") -> list[str]:
    """One ``path: golden -> actual`` line per leaf that differs."""
    if isinstance(golden, dict) and isinstance(actual, dict):
        return [line for key in sorted(set(golden) | set(actual), key=str)
                for line in field_diff(golden.get(key, "<absent>"), actual.get(key, "<absent>"),
                                       f"{path}.{key}" if path else str(key))]
    if isinstance(golden, list) and isinstance(actual, list) and len(golden) == len(actual):
        return [line for index, (old, new) in enumerate(zip(golden, actual))
                for line in field_diff(old, new, f"{path}[{index}]")]
    return [] if golden == actual else [f"{path}: {golden!r} -> {actual!r}"]


def _stored(name: str) -> dict:
    return json.loads((SNAPSHOTS / f"{name}.json").read_text(encoding="utf-8"))


def _write_snapshot(name: str, result) -> None:
    text = json.dumps(snapshot(result), sort_keys=True, indent=1)
    (SNAPSHOTS / f"{name}.json").write_text(text + "\n", encoding="utf-8")


def assert_golden(name: str, result) -> None:
    """The run hashes to GOLDEN[name]; if not, fail with the fields that moved."""
    if fingerprint(result) != GOLDEN[name]:
        lines = field_diff(_stored(name), snapshot(result))
        pytest.fail(f"{name} moved from its golden snapshot:\n  " + "\n  ".join(lines[:40]))


def trace_fingerprint(trace: TraceLog) -> str:
    """sha256 of the recorded events, minus process-global packet ids."""
    events = [
        (event.time, event.category,
         sorted((k, v) for k, v in event.details.items() if k != "packet"))
        for event in trace.events
    ]
    return hashlib.sha256(json.dumps(events, default=repr).encode("utf-8")).hexdigest()


#: cell -> sha256(canonical_dict()).  The six TCP hashes date from before the
#: engine and fabric hot-path rewrite.  The eight Polyraptor hashes were last
#: re-captured when ``codec_stats`` in the snapshot shrank to the two block
#: counters; each equals the previous commit's dict with the dropped codec
#: keys stripped, so no simulated event moved (CHANGES.md has the table).
#: When gray-failure detection went, ``polyraptor-telemetry`` lost its
#: ``loss.*`` series, nothing else.  Only the drop-tail fabric marks, so
#: ``ecn`` is a TCP cell only.  When the host-slowdown fault went, the three
#: fault-carrying cells (``polyraptor-faults``, ``polyraptor-payload``,
#: ``tcp-faults``) lost ``fault_stats.hosts_slowed: 0``, nothing else.
GOLDEN = {
    "polyraptor-unicast": "9d2fefb355015a6619a3a411ebda124ed51b91379db351fd8e4c83871e42eb7d",
    "polyraptor-multicast": "2997a0c8c8acd9e7e280f0b6b1ba034263fa64b7fa21d02e6c65f107bc68a064",
    "polyraptor-fetch": "3818d8886fbbe911066e0de45456de0bfe2c0beeecd82965ad17fbe3a2d7ebd1",
    "polyraptor-ecmp": "480c44635f1dbaebb4900ceaecbb26096aa5485be48efb6a74108d525bdb012f",
    "polyraptor-single": "21d6f7ea6ceb89f7d194b6e4fe4534317d09044b09aa4e88e98368854a46f22b",
    "polyraptor-faults": "ad3277806a70646eb263043f25012fd98a9d28d1474346108e8a11544db8c5ee",
    "polyraptor-telemetry": "0cb190440afe84f24bfed3b67cbd712450bf43d788c42b684efee235bf12c17d",
    "polyraptor-payload": "7c9cd7fd748a7e53b4345a00775e1a5979b2d23d21fed8666094e823f24c48ac",
    "tcp-unicast": "a5bdd55f40cab0e32e770db48e12668a31564b003b91a12716051e445c8745d5",
    "tcp-multicast": "1ce845de89b0690143144976085779be2da505c195459e9fd4f11782e14ad012",
    "tcp-fetch": "bd26c01dabfd1a72b972a48f53d234cb04aee39c2d42248e51756c4ea98a07d1",
    "tcp-spray": "40674a256108971dac79fcfde16bc977a023c9b7d57f7ffe75e92460402a1c41",
    "tcp-faults": "b09bee1a277b4d022ae8db37a9a22d79d851944c1868139b5bf996205c26bdee",
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
    assert_golden(name, untraced(name))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stored_snapshot_is_what_the_golden_hash_was_taken_of(name):
    text = json.dumps(_stored(name), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]


def test_field_diff_names_each_moved_leaf():
    golden = {"a": 1, "b": {"c": [1, 2]}, "d": "x"}
    actual = {"a": 1, "b": {"c": [1, 3]}, "e": "y"}
    assert field_diff(golden, actual) == [
        "b.c[1]: 2 -> 3", "d: 'x' -> '<absent>'", "e: '<absent>' -> 'y'"]


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_enabled_trace_changes_nothing_and_records_the_same_events(name):
    trace = TraceLog(enabled=True)
    result = run_cell(name, trace=trace)
    assert_golden(name, result)
    assert len(trace) > 0
    assert trace_fingerprint(trace) == GOLDEN_TRACES[name]


def test_matrix_exercises_what_it_claims_to():
    """Guard the matrix itself: trims, drops, fault drops and marks all occur."""
    assert untraced("polyraptor-multicast").trimmed_packets > 0
    assert untraced("tcp-unicast").dropped_packets > 0
    faults = untraced("polyraptor-faults").fault_stats
    assert faults["packets_dropped_link_down"] > 0 and faults["packets_dropped_random_loss"] > 0
    assert faults["route_installs"] == 2
    assert untraced("tcp-ecn").transport_stats["ecn_reactions"] > 0


if __name__ == "__main__":  # re-capture: writes golden/, prints the tables to paste above
    print("GOLDEN = {")
    for cell in GOLDEN:
        run = run_cell(cell)
        _write_snapshot(cell, run)
        print(f'    "{cell}": "{fingerprint(run)}",')
    print("}\nGOLDEN_TRACES = {")
    for cell in GOLDEN_TRACES:
        log = TraceLog(enabled=True)
        run_cell(cell, trace=log)
        print(f'    "{cell}": "{trace_fingerprint(log)}",')
    print("}")
