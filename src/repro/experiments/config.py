"""Experiment configuration.

The paper's configuration (Figure 1 caption): a 250-server FatTree (k = 10),
1 Gbps links, 10 microsecond link delay, 10,000 sessions of 4 MB each of
which 20% are background traffic, Poisson arrivals with lambda = 2560, a
permutation traffic matrix, and five repetitions with different seeds.

A packet-level pure-Python simulation of that full configuration is
computationally impractical (tens of millions of packets per protocol per
series), so :meth:`ExperimentConfig.scaled_default` provides a smaller
configuration that keeps every *ratio* the paper's comparison depends on
(relative offered load, shallow switch buffers, replicas outside the client
rack, 20% background share) while finishing in seconds.
:meth:`ExperimentConfig.paper_scale` records the full-scale parameters for
completeness; it can be run, given patience.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from repro.core.config import PolyraptorConfig
from repro.network.network import NetworkConfig
from repro.obs.config import TelemetryConfig
from repro.network.routing import RoutingMode
from repro.utils.units import KILOBYTE, MEGABYTE
from repro.utils.validation import check_positive, check_probability


class Protocol(str, Enum):
    """Transport under test."""

    POLYRAPTOR = "polyraptor"
    TCP = "tcp"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one experiment series."""

    fattree_k: int = 4

    num_foreground_transfers: int = 40
    object_bytes: int = 256 * KILOBYTE
    background_fraction: float = 0.2
    offered_load: float = 0.2
    seed: int = 1
    max_sim_time_s: float = 20.0

    polyraptor: PolyraptorConfig = field(default_factory=PolyraptorConfig)
    #: routing-convergence lag after a topology change (0 = instantaneous,
    #: the historical behaviour); applies to both protocols' fabrics and
    #: rides inside RunJob configs, so sharded sweeps stay byte-identical.
    convergence_delay_s: float = 0.0
    #: the drop-tail (TCP) fabric marks: ECN/PCN marking on its switch
    #: queues (off = the historical fabric, byte-identical to pre-marking
    #: runs).  Polyraptor's trimming fabric never marks.  Rides inside
    #: RunJob configs.
    ecn_enabled: bool = False
    #: flight-recorder telemetry (see :mod:`repro.obs`).  ``None`` -- the
    #: default -- means no telemetry at all: no sampler process, no extra
    #: random stream, and result fingerprints byte-identical to runs from
    #: before the telemetry layer existed.  Rides inside RunJob configs, so
    #: sharded sweeps record byte-identical telemetry for any worker count.
    telemetry: Optional[TelemetryConfig] = None

    def __post_init__(self) -> None:
        if self.fattree_k < 2 or self.fattree_k % 2:
            raise ValueError("fattree_k must be an even integer >= 2")
        check_positive("num_foreground_transfers", self.num_foreground_transfers)
        check_positive("object_bytes", self.object_bytes)
        check_probability("background_fraction", self.background_fraction)
        check_positive("offered_load", self.offered_load)
        check_positive("max_sim_time_s", self.max_sim_time_s)
        if self.convergence_delay_s < 0:
            raise ValueError("convergence_delay_s cannot be negative")

    # Derived quantities ---------------------------------------------------------

    @property
    def num_hosts(self) -> int:
        """Hosts in the FatTree (k^3 / 4)."""
        return (self.fattree_k ** 3) // 4

    @property
    def num_background_transfers(self) -> int:
        """Background transfers so that they are ``background_fraction`` of all sessions."""
        if self.background_fraction == 0:
            return 0
        total = self.num_foreground_transfers / (1 - self.background_fraction)
        return max(0, round(total) - self.num_foreground_transfers)

    @property
    def arrival_rate_per_second(self) -> float:
        """Poisson lambda chosen so the aggregate offered load matches ``offered_load``.

        offered_load = lambda * object_bytes * 8 / (num_hosts * link_rate).
        For the paper's numbers (250 hosts, 4 MB, 1 Gbps, lambda = 2560) this
        inverts to an offered load of ~0.33, which is what the scaled-down
        defaults keep.
        """
        return (
            self.offered_load
            * self.num_hosts
            * NetworkConfig.link_rate_bps
            / (8 * self.object_bytes)
        )

    def network_config(self, protocol: Protocol) -> NetworkConfig:
        """The fabric configuration used for a given protocol.

        Polyraptor runs on trimming switches with per-packet spraying; the TCP
        baseline runs on drop-tail switches with per-flow ECMP, which mark
        when ``ecn_enabled``.
        """
        if protocol is Protocol.POLYRAPTOR:
            return NetworkConfig(
                switch_queue="trimming",
                routing_mode=RoutingMode.PACKET_SPRAY,
                convergence_delay_s=self.convergence_delay_s,
            )
        return NetworkConfig(
            switch_queue="droptail",
            routing_mode=RoutingMode.ECMP_FLOW,
            convergence_delay_s=self.convergence_delay_s,
            ecn_enabled=self.ecn_enabled,
        )

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """A copy of this configuration with a different seed."""
        return replace(self, seed=seed)

    # Presets ----------------------------------------------------------------------

    @classmethod
    def scaled_default(cls) -> "ExperimentConfig":
        """The default scaled-down configuration used by tests and benchmarks."""
        return cls()

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """An even smaller configuration for unit tests (seconds of wall time)."""
        return cls(
            fattree_k=4,
            num_foreground_transfers=12,
            object_bytes=128 * KILOBYTE,
            max_sim_time_s=10.0,
        )

    @classmethod
    def paper_fabric(cls) -> "ExperimentConfig":
        """The paper's k=10, 250-host fabric at a tractable session count.

        The full :meth:`paper_scale` workload (8,000 x 4 MB sessions)
        remains impractical in pure Python, but the fabric itself -- the
        part the resilience and figure-1 claims depend on, with real
        oversubscription and path diversity -- is affordable per seed: 100
        sessions per series at the paper's ~0.33 offered load, and one seed
        of ``figure1b --paper-scale`` (four such series) took 14-17 s with
        ``--jobs 1`` on a shared 2-core Xeon under Python 3.11.  Use with
        ``--seeds 5`` for the paper's five-repetition methodology; the CLI
        exposes this preset as ``--paper-scale``.
        """
        return cls(
            fattree_k=10,
            num_foreground_transfers=100,
            object_bytes=256 * KILOBYTE,
            background_fraction=0.2,
            offered_load=0.33,
            max_sim_time_s=30.0,
        )

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """The paper's full-scale configuration (impractically slow in pure Python).

        250 hosts (k = 10), 8,000 sessions of 4 MB, 20% background, Poisson
        lambda = 2560 (offered load ~0.33 at 1 Gbps).
        """
        return cls(
            fattree_k=10,
            num_foreground_transfers=8000,
            object_bytes=4 * MEGABYTE,
            background_fraction=0.2,
            offered_load=0.33,
            max_sim_time_s=10.0,
        )
