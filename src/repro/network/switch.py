"""Switch models.

A :class:`Switch` forwards unicast packets toward their destination host via
the routing table (one of several equal-cost next hops, chosen by the
configured routing mode) and replicates multicast packets onto every egress
port registered for the packet's group.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.network.link import Port
from repro.network.node import Node
from repro.network.packet import Packet
from repro.network.routing import RoutingMode, UnicastTable, select_next_hop
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.trace import TraceLog


class Switch(Node):
    """A store-and-forward switch with per-destination equal-cost next hops."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        name: str,
        routing_mode: RoutingMode,
        streams: RandomStreams,
        trace: Optional[TraceLog] = None,
        unicast_table: Optional[UnicastTable] = None,
    ) -> None:
        super().__init__(sim, node_id, name)
        self.routing_mode = routing_mode
        self._streams = streams
        #: the spray stream ``switch.<name>``, opened on the first unicast
        #: packet: it is seeded from its name alone, so opening it late draws
        #: the same values, and a switch that forwards nothing never seeds one
        self._rng: Optional[random.Random] = None
        self._trace = trace if trace is not None else TraceLog(enabled=False)
        #: egress ports keyed by the remote node's name
        self._ports: dict[str, Port] = {}
        #: unicast next hops: dst host id -> tuple of remote node names.
        #: Copy-on-write: the table given at construction may be shared with
        #: other switches, so it is replaced, never mutated.
        self._next_hops: UnicastTable = unicast_table if unicast_table is not None else {}
        #: multicast egress sets: group id -> tuple of remote node names
        self._group_ports: dict[int, tuple[str, ...]] = {}
        self.forwarded_packets = 0
        self.dropped_no_route = 0
        #: dynamic fault state -- a failed switch drops every arriving packet
        self.failed = False
        self.dropped_switch_down = 0

    # Wiring -----------------------------------------------------------------

    def add_port(self, remote_name: str, port: Port) -> None:
        """Register the egress port that reaches ``remote_name``."""
        self._ports[remote_name] = port

    def close(self) -> None:
        """Detach every egress port (end of the run); each names this switch its owner."""
        self._ports.clear()

    def port_to(self, remote_name: str) -> Port:
        """Return the egress port toward a neighbour (KeyError if not wired)."""
        return self._ports[remote_name]

    @property
    def ports(self) -> dict[str, Port]:
        """All egress ports keyed by remote node name."""
        return dict(self._ports)

    def next_hops_toward(self, dst_host_id: int) -> tuple[str, ...]:
        """The installed next-hop set toward a host (empty if none installed)."""
        return self._next_hops.get(dst_host_id, ())

    def unicast_next_hops(self) -> dict[int, tuple[str, ...]]:
        """Snapshot of the whole unicast table (for reroute diffing and tests)."""
        return dict(self._next_hops)

    def replace_unicast_table(self, table: UnicastTable) -> int:
        """Install a freshly computed unicast table in one pass.

        Returns the number of entries that actually changed (the routing
        layer's ``reroutes`` metric).  Destinations absent from ``table``
        keep their current entry; unreachable destinations must be passed
        explicitly as empty tuples so stale routes are cleared.  A change
        installs a new dict: the current one may be shared.
        """
        current = self._next_hops
        changes = {
            dst_host_id: remote_names
            for dst_host_id, remote_names in table.items()
            if current.get(dst_host_id, ()) != remote_names
        }
        if changes:
            self._next_hops = {**current, **changes}
        return len(changes)

    def set_failed(self, failed: bool) -> None:
        """Fail (or restore) the whole switch.

        A failed switch black-holes every packet that reaches it; the routing
        layer is expected to recompute next hops around it (see
        :meth:`repro.network.network.Network.recompute_routes`).
        """
        self.failed = failed

    def set_group_ports(self, group_id: int, remote_names: tuple[str, ...]) -> None:
        """Install the multicast egress set for a group."""
        self._group_ports[group_id] = tuple(remote_names)

    def group_ports(self, group_id: int) -> tuple[str, ...]:
        """Return the multicast egress set for a group (empty if not a member)."""
        return self._group_ports.get(group_id, ())

    # Forwarding --------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Forward an arriving packet (unicast or multicast)."""
        if self.failed:
            self.dropped_switch_down += 1
            self._trace.record(
                self.sim.now, "switch.down_drop", switch=self.name, packet=packet.packet_id
            )
            return
        if packet.multicast_group is not None:
            self._forward_multicast(packet)
            return
        hops = self._next_hops.get(packet.dst)
        if not hops:
            self.dropped_no_route += 1
            self._trace.record(self.sim.now, "switch.no_route", switch=self.name, dst=packet.dst)
            return
        # Drawn for every unicast packet, whatever the mode and however many
        # next hops there are: the spray stream must not depend on either.
        rng = self._rng
        if rng is None:
            rng = self._rng = self._streams.stream(f"switch.{self.name}")
        spray_draw = rng.getrandbits(30)
        if len(hops) == 1:
            remote = hops[0]
        else:
            remote = select_next_hop(
                self.routing_mode, hops, packet.flow_id, packet.src, packet.dst, spray_draw
            )
        self._transmit(packet, remote)

    def _forward_multicast(self, packet: Packet) -> None:
        remotes = self._group_ports.get(packet.multicast_group, ())
        if not remotes:
            self.dropped_no_route += 1
            self._trace.record(
                self.sim.now, "switch.no_group", switch=self.name, group=packet.multicast_group
            )
            return
        for index, remote in enumerate(remotes):
            copy = packet if index == len(remotes) - 1 else packet.copy_for_replication()
            self._transmit(copy, remote)

    def _transmit(self, packet: Packet, remote_name: str) -> None:
        port = self._ports.get(remote_name)
        if port is None:
            self.dropped_no_route += 1
            self._trace.record(
                self.sim.now, "switch.no_port", switch=self.name, remote=remote_name
            )
            return
        self.forwarded_packets += 1
        if not self._trace.enabled:
            port.send(packet)
            return
        queue = port.queue
        trimmed_before = getattr(queue, "trimmed_packets", 0)
        dropped_before = getattr(queue, "dropped_packets", 0)
        accepted = port.send(packet)
        if getattr(queue, "trimmed_packets", 0) > trimmed_before:
            self._trace.record(
                self.sim.now, "switch.trim", switch=self.name, port=port.name,
                packet=packet.packet_id, flow=packet.flow_id,
            )
        if not accepted or getattr(queue, "dropped_packets", 0) > dropped_before:
            self._trace.record(
                self.sim.now, "switch.drop", switch=self.name, port=port.name,
                packet=packet.packet_id, flow=packet.flow_id,
            )

    # Statistics ---------------------------------------------------------------

    @property
    def total_trimmed(self) -> int:
        """Packets trimmed across all this switch's egress queues."""
        return sum(getattr(port.queue, "trimmed_packets", 0) for port in self._ports.values())

    @property
    def total_dropped(self) -> int:
        """Packets dropped across all this switch's egress queues."""
        return sum(getattr(port.queue, "dropped_packets", 0) for port in self._ports.values())

    @property
    def total_ecn_marked(self) -> int:
        """Packets CE-marked across all this switch's egress queues."""
        return sum(getattr(port.queue, "ecn_marked", 0) for port in self._ports.values())

