"""TCP model configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive

#: Protocol name used to register the TCP endpoint on hosts.
TCP_PROTOCOL = "tcp"


@dataclass(frozen=True)
class TcpConfig:
    """Parameters of the NewReno-style TCP model.

    The defaults describe the "standard TCP" the paper's baseline represents:
    1500-byte packets, an initial window of 10 segments, a 200 ms minimum
    retransmission timeout (the value whose interaction with synchronised
    short flows produces classic Incast collapse) and drop-tail switches.
    """

    mss_bytes: int = 1436
    header_bytes: int = 64
    initial_cwnd_segments: int = 10
    initial_ssthresh_bytes: int = 1 << 30
    duplicate_ack_threshold: int = 3
    min_rto_s: float = 0.2
    max_rto_s: float = 60.0
    initial_rto_s: float = 0.2
    rtt_alpha: float = 0.125
    rtt_beta: float = 0.25
    ack_bytes: int = 64

    def __post_init__(self) -> None:
        check_positive("mss_bytes", self.mss_bytes)
        check_positive("header_bytes", self.header_bytes)
        check_positive("initial_cwnd_segments", self.initial_cwnd_segments)
        check_positive("duplicate_ack_threshold", self.duplicate_ack_threshold)
        check_positive("min_rto_s", self.min_rto_s)
        check_positive("max_rto_s", self.max_rto_s)
        check_positive("initial_rto_s", self.initial_rto_s)
        if not 0 < self.rtt_alpha < 1 or not 0 < self.rtt_beta < 1:
            raise ValueError("rtt_alpha and rtt_beta must be in (0, 1)")

    @property
    def packet_bytes(self) -> int:
        """Full size of an MSS-sized data packet on the wire."""
        return self.mss_bytes + self.header_bytes

    @property
    def initial_cwnd_bytes(self) -> int:
        """Initial congestion window in bytes."""
        return self.initial_cwnd_segments * self.mss_bytes
