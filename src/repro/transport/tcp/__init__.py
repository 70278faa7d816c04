"""The TCP baseline: a NewReno-style unicast transport.

The paper compares Polyraptor against "standard unicast data transport":

* one-to-many replication is emulated by **multi-unicasting** the full object
  over N independent TCP connections (:mod:`repro.transport.tcp.multiunicast`);
* many-to-one fetch is emulated by N senders each transferring a 1/N share of
  the object without coordination;
* the Incast scenario is simply N synchronised short TCP flows to one
  receiver.

The model implements slow start, congestion avoidance, fast
retransmit/recovery (NewReno), retransmission timeouts with exponential
backoff and Karn's algorithm for RTT sampling.  It runs over drop-tail
switches with per-flow ECMP, which is the deployment the paper's baseline
assumes.
"""

from repro.transport.tcp.agent import TcpAgent
from repro.transport.tcp.multiunicast import start_multi_source_fetch, start_replicated_push
from repro.transport.tcp.segments import TcpSegment

__all__ = [
    "TcpAgent",
    "TcpSegment",
    "start_replicated_push",
    "start_multi_source_fetch",
]
