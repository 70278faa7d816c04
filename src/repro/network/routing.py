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
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable

from repro.network.topology import Topology, bfs_distances


class RoutingMode(str, Enum):
    """Next-hop selection policy."""

    ECMP_FLOW = "ecmp_flow"
    PACKET_SPRAY = "packet_spray"
    SINGLE_PATH = "single_path"


class RoutingTable:
    """Per-switch equal-cost next hops toward every host.

    ``failed_edges`` / ``failed_nodes`` describe the current topology damage:
    routes are computed on the base graph with those links and switches
    removed.  A host that is unreachable from a switch simply has no entry
    (looked up through :meth:`next_hops_or_empty`, which returns an empty
    tuple the forwarding path treats as "no route").
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
        #: next_hops[switch_name][host_name] -> tuple of neighbour names
        self._next_hops: dict[str, dict[str, tuple[str, ...]]] = {}
        #: host name -> its rack switch, for hosts whose uplink survives
        self._uplinks: dict[str, str] = {}
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
        topology = self._topology
        adj = topology.graph.adj
        failed_nodes = self._failed_nodes
        down = {pair for a, b in self._failed_edges for pair in ((a, b), (b, a))}
        switches = topology.switches
        live = {switch for switch in switches if switch not in failed_nodes}
        fabric = {
            switch: [n for n in adj[switch] if n in live and (switch, n) not in down]
            for switch in switches
            if switch in live
        }
        self._uplinks = {
            host: rack
            for host in topology.hosts
            for rack in adj[host]
            if rack in live and (host, rack) not in down
        }
        toward_rack: dict[str, dict[str, tuple[str, ...]]] = {}
        for rack in set(self._uplinks.values()):
            distances = bfs_distances(fabric, rack)
            toward_rack[rack] = {
                switch: tuple(sorted(
                    n for n in fabric[switch] if distances.get(n) == distance - 1
                ))
                for switch, distance in distances.items()
                if distance
            }
        self._next_hops = {switch: {} for switch in switches}
        for host, rack in self._uplinks.items():
            for switch, hops in toward_rack[rack].items():
                self._next_hops[switch][host] = hops
            self._next_hops[rack][host] = (host,)

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

    def routes_from(self, switch_name: str) -> dict[str, tuple[str, ...]]:
        """Every host reachable from ``switch_name`` -> its next hops (do not mutate)."""
        return self._next_hops[switch_name]

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
