"""Seeded end-to-end regression: Polyraptor under gray failure.

With ``gray_failure_schedule`` dropping 10% of packets on every fabric link
(routing never reacts -- the gray signature), a Polyraptor transfer must
still complete with bounded FCT inflation against its own healthy baseline.
Nothing detects the failure: the fountain code absorbs loss, and the pull
clock keeps running on whatever arrives.  The gray cell is simulated once
for the properties and once more for the determinism check.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
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

    @pytest.fixture(scope="class")
    def gray(self, topology):
        return run_transfers(
            Protocol.POLYRAPTOR, CONFIG, _workload(topology), topology=topology,
            fault_schedule=_gray_schedule(topology),
        )

    def test_transfer_bounded_under_gray_loss(self, topology, gray):
        healthy = run_transfers(
            Protocol.POLYRAPTOR, CONFIG, _workload(topology), topology=topology
        )
        assert healthy.completion_fraction == 1.0
        assert gray.completion_fraction == 1.0
        inflation = _median_fct(gray) / _median_fct(healthy)
        assert inflation < MAX_FCT_INFLATION

    def test_fixed_rate_transfer_does_not_starve_under_gray_loss(self, gray):
        # The fault actually dropped packets, nothing marked, and the
        # receiver kept pulling symbols through the lossy fabric until it
        # decoded the object.
        assert gray.fault_stats["packets_dropped_random_loss"] > 0
        assert gray.transport_stats is None
        assert gray.completion_fraction == 1.0

    def test_same_schedule_same_result(self, topology, gray):
        """The gray regression itself is seeded: two runs are byte-identical."""
        again = run_transfers(
            Protocol.POLYRAPTOR, CONFIG, _workload(topology), topology=topology,
            fault_schedule=_gray_schedule(topology),
        )
        assert again.canonical_dict() == gray.canonical_dict()
