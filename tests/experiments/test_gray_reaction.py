"""Seeded end-to-end regression: Polyraptor under gray failure.

With ``gray_failure_schedule`` dropping 10% of packets on every fabric link
(routing never reacts -- the gray signature), a Polyraptor transfer with
ECN marking and gray detection on must still complete with bounded FCT
inflation against its own healthy baseline, and so must one with every
reactive feature off (the fountain code absorbs loss; the pull clock keeps
running on whatever arrives).
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.incast import reactive_config
from repro.experiments.runner import run_transfers
from repro.faults.schedule import gray_failure_schedule
from repro.network.topology import FatTreeTopology
from repro.utils.units import KILOBYTE
from repro.workloads.spec import TransferKind, TransferSpec

GRAY_LOSS = 0.10
#: Generous ceiling on FCT inflation under 10% loss on *every* fabric link
#: (so ~30%+ compounded per 4-hop path, each direction -- pulls die too).
#: Measured inflation is ~38x; a transport that degenerates into
#: timeout-driven crawling lands orders of magnitude above this bound.
MAX_FCT_INFLATION = 75.0

#: The gray builder smears loss onsets into [0.05, 0.30] x duration and
#: clears into [0.70, 0.95] x duration; with a 1 s window every affected
#: link is lossy throughout [0.30, 0.70], so the (sub-millisecond) transfer
#: starts squarely inside the loss regime.
GRAY_WINDOW_S = 1.0
TRANSFER_START_S = 0.4

CONFIG = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=1,
    object_bytes=64 * KILOBYTE,
    background_fraction=0.0,
    max_sim_time_s=20.0,
)
#: marking on both fabrics plus gray-failure detection on Polyraptor senders
REACTIVE = replace(
    reactive_config(CONFIG),
    polyraptor=replace(CONFIG.polyraptor, gray_detection=True),
)


def _workload(topology):
    hosts = topology.hosts
    return [
        TransferSpec(
            transfer_id=1,
            kind=TransferKind.UNICAST,
            client=hosts[0],
            peers=(hosts[-1],),
            size_bytes=CONFIG.object_bytes,
            start_time=TRANSFER_START_S,
            label="foreground",
        )
    ]


def _gray_schedule(topology):
    return gray_failure_schedule(
        topology,
        random.Random(7),
        loss_probability=GRAY_LOSS,
        affected_fraction=1.0,
        start_time=0.0,
        duration=GRAY_WINDOW_S,
    )


def _median_fct(run):
    records = [r for r in run.registry.records if r.completed]
    assert records, "transfer did not complete"
    return min(r.flow_completion_time for r in records)


class TestGrayReaction:
    @pytest.fixture(scope="class")
    def topology(self):
        return FatTreeTopology(CONFIG.fattree_k)

    def test_reactive_transfer_bounded_under_gray_loss(self, topology):
        transfers = _workload(topology)
        healthy = run_transfers(
            Protocol.POLYRAPTOR, REACTIVE, transfers, topology=topology
        )
        gray = run_transfers(
            Protocol.POLYRAPTOR, REACTIVE, transfers, topology=topology,
            fault_schedule=_gray_schedule(topology),
        )
        assert healthy.completion_fraction == 1.0
        assert gray.completion_fraction == 1.0
        inflation = _median_fct(gray) / _median_fct(healthy)
        assert inflation < MAX_FCT_INFLATION
        # The reactive machinery actually ran under loss.
        assert gray.transport_stats is not None
        assert gray.fault_stats["packets_dropped_random_loss"] > 0

    def test_fixed_rate_transfer_does_not_starve_under_gray_loss(self, topology):
        transfers = _workload(topology)
        gray = run_transfers(
            Protocol.POLYRAPTOR, CONFIG, transfers, topology=topology,
            fault_schedule=_gray_schedule(topology),
        )
        # With no marking and no gray detection the receiver keeps pulling
        # symbols through the lossy fabric and still decodes the object.
        assert gray.completion_fraction == 1.0
        assert gray.transport_stats is None  # every reactive feature off

    def test_same_schedule_same_result(self, topology):
        """The gray regression itself is seeded: two runs are byte-identical."""
        transfers = _workload(topology)
        first = run_transfers(
            Protocol.POLYRAPTOR, REACTIVE, transfers, topology=topology,
            fault_schedule=_gray_schedule(topology),
        )
        second = run_transfers(
            Protocol.POLYRAPTOR, REACTIVE, transfers, topology=topology,
            fault_schedule=_gray_schedule(topology),
        )
        assert first.canonical_dict() == second.canonical_dict()
