"""End hosts.

A :class:`Host` has a single NIC (one egress port toward its rack switch) and
a registry of transport endpoints keyed by protocol name.  Arriving packets
are dispatched to the endpoint registered for ``packet.protocol``; transports
send by calling :meth:`Host.send`, which stamps the creation time and hands
the packet to the NIC queue.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.network.link import Port
from repro.network.node import Node
from repro.network.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog


class ProtocolEndpoint(Protocol):
    """Anything that can receive packets addressed to a protocol on a host."""

    def handle_packet(self, packet: Packet) -> None:
        """Process one packet delivered to this host."""


class Host(Node):
    """A server with one NIC."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        name: str,
        trace: Optional[TraceLog] = None,
    ) -> None:
        super().__init__(sim, node_id, name)
        self._nic: Optional[Port] = None
        self._protocols: dict[str, ProtocolEndpoint] = {}
        self._trace = trace if trace is not None else TraceLog(enabled=False)
        #: multicast groups this host has joined
        self.joined_groups: set[int] = set()

    # Wiring -------------------------------------------------------------------

    def attach_nic(self, port: Port) -> None:
        """Attach the single egress port (to the rack switch)."""
        if self._nic is not None:
            raise RuntimeError(f"host {self.name} already has a NIC")
        self._nic = port

    def close(self) -> None:
        """Detach the NIC and every endpoint (end of the run).

        Both point back at this host (the port's owner, the endpoint's
        host), so detaching them is what makes the graph acyclic.
        """
        self._nic = None
        self._protocols.clear()

    @property
    def nic(self) -> Port:
        """The host's NIC egress port."""
        if self._nic is None:
            raise RuntimeError(f"host {self.name} has no NIC attached")
        return self._nic

    @property
    def link_rate_bps(self) -> float:
        """The NIC's line rate in bits per second."""
        return self.nic.rate_bps

    def register_protocol(self, protocol: str, endpoint: ProtocolEndpoint) -> None:
        """Register the endpoint that handles packets of the given protocol."""
        if protocol in self._protocols:
            raise ValueError(f"protocol {protocol!r} already registered on {self.name}")
        self._protocols[protocol] = endpoint

    def join_group(self, group_id: int) -> None:
        """Record membership of a multicast group (delivery filter)."""
        self.joined_groups.add(group_id)

    # Data path ------------------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Transmit a packet out of the NIC; returns False if the NIC queue dropped it."""
        packet.created_at = self.sim.now
        accepted = self.nic.send(packet)
        if not accepted:
            self._trace.record(self.sim.now, "host.nic_drop", host=self.name,
                               packet=packet.packet_id)
        return accepted

    def receive(self, packet: Packet) -> None:
        """Deliver an arriving packet to the registered protocol endpoint."""
        group = packet.multicast_group
        if group is not None and group not in self.joined_groups:
            # Not a member (e.g. a stale tree edge); silently discard.
            self._trace.record(self.sim.now, "host.not_member", host=self.name, group=group)
            return
        endpoint = self._protocols.get(packet.protocol)
        if endpoint is None:
            self._trace.record(self.sim.now, "host.no_protocol", host=self.name,
                               protocol=packet.protocol)
            return
        endpoint.handle_packet(packet)
