"""The teardown contract: a finished run leaves nothing behind.

``run_transfers`` closes its environment on every exit path, so the run's
whole object graph -- simulator heap, fabric, agents, sessions, timers,
codec state and payload bytes -- is freed by reference counting the moment
the run returns or raises, instead of waiting for a cycle collection that
long campaigns almost never get.  Each case runs with the collector off and
asserts that a collection would find no ``repro.*`` object to free.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.resilience import permutation_workload
from repro.experiments.runner import run_transfers
from repro.faults.schedule import (
    FaultSchedule,
    gray_failure_schedule,
    link_loss,
    shared_risk_group_schedule,
)
from repro.network.topology import FatTreeTopology
from repro.obs import TelemetryConfig
from repro.sim.randomness import RandomStreams
from repro.workloads.spec import TransferKind, TransferSpec

TOPOLOGY = FatTreeTopology(4)


def _config(**overrides) -> ExperimentConfig:
    settings = dict(
        fattree_k=4, num_foreground_transfers=4, object_bytes=48 * 1024,
        background_fraction=0.0, offered_load=0.33, seed=7, max_sim_time_s=10.0,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def _lossy_fabric(probability: float = 0.01) -> FaultSchedule:
    return FaultSchedule.ordered([
        link_loss(0.0, a, b, probability, cause="gray") for a, b in sorted(TOPOLOGY.graph.edges)
    ])


def _compound_faults() -> FaultSchedule:
    rng = RandomStreams(7).stream("teardown.faults")
    srlg = shared_risk_group_schedule(TOPOLOGY, rng, group_size=2, start_time=0.0, duration=0.002)
    gray = gray_failure_schedule(TOPOLOGY, rng, loss_probability=0.02, start_time=0.0,
                                 duration=0.002)
    return srlg.merged(gray)


def _group(kind: TransferKind, peers: tuple[str, ...]) -> list[TransferSpec]:
    return [TransferSpec(transfer_id=1, kind=kind, client="h0", peers=peers,
                         size_bytes=64 * 1024, start_time=0.0, label="foreground")]


def _identity():
    config = _config()
    return Protocol.POLYRAPTOR, config, permutation_workload(config, TOPOLOGY), {}


def _payload_lossy():
    config = _config()
    return (Protocol.POLYRAPTOR, config, permutation_workload(config, TOPOLOGY),
            dict(polyraptor_config=PolyraptorConfig(carry_payload=True),
                 fault_schedule=_lossy_fabric()))


def _tcp():
    config = _config()
    return Protocol.TCP, config, permutation_workload(config, TOPOLOGY), {}


def _faults(protocol: Protocol):
    def case():
        config = _config(convergence_delay_s=50e-6)
        return (protocol, config, permutation_workload(config, TOPOLOGY),
                dict(fault_schedule=_compound_faults()))
    return case


def _telemetry():
    config = _config(telemetry=TelemetryConfig(sample_period_s=1e-4))
    return Protocol.POLYRAPTOR, config, permutation_workload(config, TOPOLOGY), {}


def _multicast_push():
    return (Protocol.POLYRAPTOR, _config(),
            _group(TransferKind.REPLICATE, ("h5", "h9", "h13")), {})


def _multi_source_fetch(protocol: Protocol):
    def case():
        return protocol, _config(), _group(TransferKind.FETCH, ("h6", "h10")), {}
    return case


CASES = {
    "polyraptor-identity": _identity,
    "polyraptor-payload-lossy": _payload_lossy,
    "tcp": _tcp,
    "polyraptor-srlg-gray-lag": _faults(Protocol.POLYRAPTOR),
    "tcp-srlg-gray-lag": _faults(Protocol.TCP),
    "polyraptor-telemetry": _telemetry,
    "polyraptor-multicast-push": _multicast_push,
    "polyraptor-multi-source-fetch": _multi_source_fetch(Protocol.POLYRAPTOR),
    "tcp-multi-source-fetch": _multi_source_fetch(Protocol.TCP),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_run_leaves_no_cyclic_garbage(case, cyclic_garbage):
    protocol, config, transfers, overrides = CASES[case]()
    completed = []

    def run():
        result = run_transfers(protocol, config, transfers, topology=TOPOLOGY, **overrides)
        completed.append(result.completion_fraction)

    assert cyclic_garbage(run) == {}
    assert completed == [1.0]  # the case did real work, and all of it


@pytest.mark.parametrize("protocol", [Protocol.POLYRAPTOR, Protocol.TCP])
def test_a_run_that_raises_mid_run_leaves_no_cyclic_garbage(protocol, cyclic_garbage):
    config = _config()
    transfers = permutation_workload(config, TOPOLOGY)
    # Starts while the others are in flight: sessions, timers and queued
    # packets are all live when the run dies.
    doomed = TransferSpec(transfer_id=99, kind=TransferKind.UNICAST, client="h0",
                          peers=("no-such-host",), size_bytes=1024,
                          start_time=transfers[0].start_time + 20e-6, label="foreground")

    def run():
        with pytest.raises(KeyError, match="no-such-host"):
            run_transfers(protocol, config, [*transfers, doomed], topology=TOPOLOGY)

    assert cyclic_garbage(run) == {}


#: Traced-memory slack allowed between the first and the fifth payload cell:
#: allocator and interning noise.  One leaked cell of this size holds
#: several MB (its encoders, decoders and payload bytes), so a leak cannot
#: hide under it.
TRACED_SLACK_BYTES = 64 * 1024


def test_payload_cells_hold_no_more_memory_after_five_than_after_one():
    traced = []
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        for seed in range(5):
            config = _config(seed=100 + seed, object_bytes=128 * 1024)
            result = run_transfers(
                Protocol.POLYRAPTOR, config, permutation_workload(config, TOPOLOGY),
                topology=TOPOLOGY, polyraptor_config=PolyraptorConfig(carry_payload=True),
                fault_schedule=_lossy_fabric(),
            )
            assert result.completion_fraction == 1.0
            del result
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert traced[-1] - traced[0] <= TRACED_SLACK_BYTES, traced
