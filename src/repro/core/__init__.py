"""Polyraptor: the paper's receiver-driven, RaptorQ-coded transport.

The protocol is one :class:`~repro.core.agent.PolyraptorAgent` per simulated
host.  All session logic -- pull clocking, multicast aggregation,
multi-source partitioning, decode handling -- lives in the pure cores of
:mod:`repro.protocol`; the agent is the simulator binding.  It owns:

* the host's single **pull pacer**
  (:class:`~repro.protocol.pacer.PacedPullQueue`), shared by every session
  terminating at that host, which paces pull requests so the aggregate
  symbol arrival rate matches the host's link capacity;
* one :class:`~repro.protocol.driver.SessionDriver` per **sender session**
  (over a :class:`~repro.protocol.sender.SenderCore`) and per **receiver
  session** (over a :class:`~repro.protocol.receiver.ReceiverCore`), each
  bound to the simulator's clock and the host's NIC by
  :meth:`~repro.core.agent.PolyraptorAgent.drive`; protocol state and
  counters read as ``session.core.<name>``.

Sessions are one-to-many (replication / multicast), many-to-one
(multi-source fetch) or one-to-one (plain unicast, a specialisation of both).
"""

from repro.core.agent import POLYRAPTOR_PROTOCOL, PolyraptorAgent
from repro.core.config import PolyraptorConfig
from repro.core.packets import (
    DoneAckPayload,
    DonePayload,
    PullPayload,
    RequestPayload,
    SymbolPayload,
)
from repro.core.straggler import StragglerPolicy

__all__ = [
    "POLYRAPTOR_PROTOCOL",
    "PolyraptorAgent",
    "PolyraptorConfig",
    "StragglerPolicy",
    "SymbolPayload",
    "PullPayload",
    "RequestPayload",
    "DoneAckPayload",
    "DonePayload",
]
