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
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable

import networkx as nx

from repro.network.topology import Topology


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
        self._graph: nx.Graph = topology.graph
        #: next_hops[switch_name][host_name] -> tuple of neighbour names
        self._next_hops: dict[str, dict[str, tuple[str, ...]]] = {}
        self._build()

    @staticmethod
    def _normalise_edges(edges: Iterable[Iterable[str]]) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(edge) for edge in edges)

    @property
    def graph(self) -> nx.Graph:
        """The effective (surviving) graph the current routes were computed on."""
        return self._graph

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
        base = self._topology.graph
        if self._failed_edges or self._failed_nodes:
            graph = nx.restricted_view(
                base,
                tuple(sorted(self._failed_nodes)),
                tuple(tuple(sorted(edge)) for edge in self._failed_edges),
            )
        else:
            graph = base
        self._graph = graph
        self._next_hops = {switch: {} for switch in self._topology.switches}
        live_switches = set(self._topology.switches) - set(self._failed_nodes)
        for host in self._topology.hosts:
            distances = nx.single_source_shortest_path_length(graph, host)
            for switch in live_switches:
                switch_distance = distances.get(switch)
                if switch_distance is None:
                    continue
                hops = tuple(
                    sorted(
                        neighbour
                        for neighbour in graph.neighbors(switch)
                        if distances.get(neighbour, float("inf")) == switch_distance - 1
                    )
                )
                self._next_hops[switch][host] = hops

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

    def path(self, src_host: str, dst_host: str, tie_break: int = 0) -> list[str]:
        """Return one deterministic shortest path between two hosts.

        ``tie_break`` selects among equal-cost next hops at every step, so
        different values yield different (but still shortest) paths; multicast
        tree construction uses the group id as the tie-break to spread trees
        across the fabric.
        """
        if src_host == dst_host:
            return [src_host]
        graph = self._graph
        path = [src_host]
        uplinks = list(graph.neighbors(src_host))
        if not uplinks:
            raise KeyError(f"host {src_host!r} has no live uplink")
        current = uplinks[0]  # host's single uplink
        path.append(current)
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
