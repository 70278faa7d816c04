"""Routing: equal-cost next-hop computation and next-hop selection policies.

The routing table is computed once from the topology: for every switch and
every destination host, the set of neighbour nodes that lie on *some*
shortest path to that host.  At forwarding time a switch picks one next hop
according to the configured :class:`RoutingMode`:

* ``ECMP_FLOW``     -- a hash of (flow id, src, dst) picks a consistent next
  hop per flow; this is how the TCP baseline is routed (per-flow ECMP).
* ``PACKET_SPRAY``  -- a uniformly random next hop per packet; this is the
  multipath symbol spraying Polyraptor relies on.
* ``SINGLE_PATH``   -- always the first next hop; useful for debugging and
  for constructing deterministic multicast trees.

The table is no longer static: :meth:`RoutingTable.rebuild` recomputes every
next-hop set on the *surviving* topology (the base graph minus failed links
and failed switches), which is how the fault-injection subsystem
(:mod:`repro.faults`) reroutes traffic after a topology change.  Rebuilding
with no failures restores exactly the original table.

Next hops are computed per destination *rack*, not per host: a host has
exactly one uplink, so every shortest path toward it ends rack -> host, and
every switch other than the rack itself uses the same next hops toward the
host as toward its rack.  One breadth-first search per live rack switch over
the surviving switch adjacency therefore yields the whole table.

The healthy table is a pure function of the topology, so it is computed once
per :class:`~repro.network.topology.Topology` object (:func:`healthy_routes`)
and shared read-only: every table built or rebuilt without failures, and
every switch at construction, adopts it.  Tables around failures are
computed fresh and never cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional

from repro.network.topology import Topology, bfs_distances

#: next_hops[switch_name][host_name] -> tuple of neighbour names
NextHops = dict[str, dict[str, tuple[str, ...]]]
#: a switch's unicast table: host node id -> tuple of neighbour names
UnicastTable = dict[int, tuple[str, ...]]


class RoutingMode(str, Enum):
    """Next-hop selection policy."""

    ECMP_FLOW = "ecmp_flow"
    PACKET_SPRAY = "packet_spray"
    SINGLE_PATH = "single_path"


def _compute_routes(
    topology: Topology,
    hosts: list[str],
    switches: list[str],
    failed_edges: frozenset[frozenset[str]],
    failed_nodes: frozenset[str],
) -> tuple[NextHops, dict[str, str]]:
    """Next hops and live uplinks on the topology minus the failed elements."""
    adj = topology.graph.adj
    down = {pair for a, b in failed_edges for pair in ((a, b), (b, a))}
    live = {switch for switch in switches if switch not in failed_nodes}
    fabric = {
        switch: [n for n in adj[switch] if n in live and (switch, n) not in down]
        for switch in switches
        if switch in live
    }
    uplinks = {
        host: rack
        for host in hosts
        for rack in adj[host]
        if rack in live and (host, rack) not in down
    }
    toward_rack: NextHops = {}
    for rack in set(uplinks.values()):
        distances = bfs_distances(fabric, rack)
        toward_rack[rack] = {
            switch: tuple(sorted(
                n for n in fabric[switch] if distances.get(n) == distance - 1
            ))
            for switch, distance in distances.items()
            if distance
        }
    next_hops: NextHops = {switch: {} for switch in switches}
    for host, rack in uplinks.items():
        for switch, hops in toward_rack[rack].items():
            next_hops[switch][host] = hops
        next_hops[rack][host] = (host,)
    return next_hops, uplinks


def _unicast_table(hosts: list[str], routes: dict[str, tuple[str, ...]]) -> UnicastTable:
    """One switch's routes keyed by host node id (a host's index in ``hosts``)."""
    return {node_id: routes.get(host, ()) for node_id, host in enumerate(hosts)}


@dataclass(frozen=True)
class HealthyRoutes:
    """Everything a topology's healthy routing decides.

    Built once per topology by :func:`healthy_routes` and shared by every
    :class:`RoutingTable` and :class:`~repro.network.switch.Switch` built on
    it, so none of the containers may be mutated.
    """

    hosts: list[str]
    switches: list[str]
    next_hops: NextHops
    uplinks: dict[str, str]
    #: switch name -> its unicast table (see :data:`UnicastTable`)
    unicast_tables: dict[str, UnicastTable]


def healthy_routes(topology: Topology) -> HealthyRoutes:
    """The topology's healthy routing, computed on first use and memoised on it."""
    routes = topology._routes
    if routes is None:
        hosts, switches = topology.hosts, topology.switches
        next_hops, uplinks = _compute_routes(
            topology, hosts, switches, frozenset(), frozenset()
        )
        routes = topology._routes = HealthyRoutes(
            hosts, switches, next_hops, uplinks,
            {switch: _unicast_table(hosts, next_hops[switch]) for switch in switches},
        )
    return routes


class RoutingTable:
    """Per-switch equal-cost next hops toward every host.

    ``failed_edges`` / ``failed_nodes`` describe the current topology damage:
    routes are computed on the base graph with those links and switches
    removed.  A host that is unreachable from a switch simply has no entry
    (looked up through :meth:`next_hops_or_empty`, which returns an empty
    tuple the forwarding path treats as "no route").  Without damage the
    table is the topology's shared :func:`healthy_routes`.
    """

    def __init__(
        self,
        topology: Topology,
        failed_edges: Iterable[tuple[str, str]] = (),
        failed_nodes: Iterable[str] = (),
    ) -> None:
        self._topology = topology
        self._failed_edges = self._normalise_edges(failed_edges)
        self._failed_nodes = frozenset(failed_nodes)
        self._healthy: HealthyRoutes
        self._next_hops: NextHops = {}
        #: host name -> its rack switch, for hosts whose uplink survives
        self._uplinks: dict[str, str] = {}
        #: the shared healthy unicast tables, or None while routing around damage
        self._unicast_tables: Optional[dict[str, UnicastTable]] = None
        self._build()

    @staticmethod
    def _normalise_edges(edges: Iterable[Iterable[str]]) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(edge) for edge in edges)

    @property
    def failed_edges(self) -> frozenset[frozenset[str]]:
        """The failed links the current routes were computed around."""
        return self._failed_edges

    @property
    def failed_nodes(self) -> frozenset[str]:
        """The failed switches the current routes were computed around."""
        return self._failed_nodes

    def rebuild(
        self,
        failed_edges: Iterable[tuple[str, str]] = (),
        failed_nodes: Iterable[str] = (),
    ) -> None:
        """Recompute every next-hop set on the surviving topology.

        Rebuilding with the same failure sets is idempotent, and rebuilding
        with empty sets restores the pre-failure table exactly (next-hop sets
        are sorted tuples, so equality is well defined).
        """
        self._failed_edges = self._normalise_edges(failed_edges)
        self._failed_nodes = frozenset(failed_nodes)
        self._build()

    def _build(self) -> None:
        healthy = self._healthy = healthy_routes(self._topology)
        if not self._failed_edges and not self._failed_nodes:
            self._next_hops, self._uplinks = healthy.next_hops, healthy.uplinks
            self._unicast_tables = healthy.unicast_tables
            return
        self._next_hops, self._uplinks = _compute_routes(
            self._topology, healthy.hosts, healthy.switches,
            self._failed_edges, self._failed_nodes,
        )
        self._unicast_tables = None

    def next_hops(self, switch_name: str, host_name: str) -> tuple[str, ...]:
        """All equal-cost next hops from ``switch_name`` toward ``host_name``."""
        try:
            return self._next_hops[switch_name][host_name]
        except KeyError as error:
            raise KeyError(
                f"no route from {switch_name!r} to {host_name!r}"
            ) from error

    def next_hops_or_empty(self, switch_name: str, host_name: str) -> tuple[str, ...]:
        """Like :meth:`next_hops` but returns ``()`` for unreachable pairs.

        Used when (re)installing routes into switches: an empty set makes the
        switch count the packet as ``dropped_no_route`` instead of raising at
        table-build time.
        """
        return self._next_hops.get(switch_name, {}).get(host_name, ())

    def unicast_table(self, switch_name: str) -> UnicastTable:
        """``switch_name``'s next hops toward every host, keyed by host node id.

        A host's node id is its index in the topology's host list (the order
        :class:`~repro.network.network.Network` numbers hosts in), and an
        unreachable host maps to ``()``.  Without damage this is the shared
        healthy table: do not mutate it.
        """
        if self._unicast_tables is not None:
            return self._unicast_tables[switch_name]
        return _unicast_table(self._healthy.hosts, self._next_hops[switch_name])

    def path(self, src_host: str, dst_host: str, tie_break: int = 0) -> list[str]:
        """Return one deterministic shortest path between two hosts.

        ``tie_break`` selects among equal-cost next hops at every step, so
        different values yield different (but still shortest) paths; multicast
        tree construction uses the group id as the tie-break to spread trees
        across the fabric.
        """
        if src_host == dst_host:
            return [src_host]
        current = self._uplinks.get(src_host)
        if current is None:
            raise KeyError(f"host {src_host!r} has no live uplink")
        path = [src_host, current]
        while current != dst_host:
            hops = self.next_hops(current, dst_host)
            if not hops:
                raise KeyError(f"no route from {current!r} to {dst_host!r}")
            if hops[0] == dst_host or dst_host in hops:
                chosen = dst_host
            else:
                chosen = hops[(tie_break + len(path)) % len(hops)]
            path.append(chosen)
            current = chosen
        return path


@lru_cache(maxsize=1 << 14)
def stable_hash(*parts: int) -> int:
    """A deterministic integer hash (Python's ``hash`` is salted per process).

    Memoised: per-flow ECMP asks for the same ``(flow, src, dst)`` once per
    packet per hop.
    """
    value = 0xCBF29CE484222325
    for part in parts:
        for byte in int(part).to_bytes(8, "little", signed=True):
            value ^= byte
            value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


def select_next_hop(
    mode: RoutingMode,
    hops: tuple[str, ...],
    packet_flow_id: int,
    packet_src: int,
    packet_dst: int,
    spray_draw: int,
) -> str:
    """Pick one next hop out of an equal-cost set according to ``mode``.

    ``spray_draw`` is a pre-drawn random integer supplied by the switch (so
    the randomness source stays under the experiment's seed control).
    """
    if not hops:
        raise ValueError("cannot select a next hop from an empty set")
    if len(hops) == 1:
        return hops[0]
    if mode is RoutingMode.SINGLE_PATH:
        return hops[0]
    if mode is RoutingMode.ECMP_FLOW:
        index = stable_hash(packet_flow_id, packet_src, packet_dst) % len(hops)
        return hops[index]
    if mode is RoutingMode.PACKET_SPRAY:
        return hops[spray_draw % len(hops)]
    raise ValueError(f"unknown routing mode {mode!r}")
