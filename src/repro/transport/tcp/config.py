"""Constants of the NewReno-style TCP model.

They describe the "standard TCP" the paper's baseline represents: 1500-byte
packets (an MSS plus :data:`repro.network.packet.DEFAULT_HEADER_BYTES` of
header, which is also the size of an ACK), an initial window of 10 segments,
a 200 ms minimum retransmission timeout (the value whose interaction with
synchronised short flows produces classic Incast collapse) and drop-tail
switches.
"""

from __future__ import annotations

#: Protocol name used to register the TCP endpoint on hosts.
TCP_PROTOCOL = "tcp"

#: payload bytes of a full data segment.
MSS_BYTES = 1436
#: initial congestion window, in segments.
INITIAL_CWND_SEGMENTS = 10
#: initial slow-start threshold: effectively unbounded.
INITIAL_SSTHRESH_BYTES = 1 << 30
#: duplicate ACKs that trigger fast retransmit.
DUPLICATE_ACK_THRESHOLD = 3
#: floor, cap and starting value of the retransmission timeout.
MIN_RTO_S = 0.2
MAX_RTO_S = 60.0
INITIAL_RTO_S = 0.2
#: RFC 6298 gains of the smoothed RTT and of its variation.
RTT_ALPHA = 0.125
RTT_BETA = 0.25
