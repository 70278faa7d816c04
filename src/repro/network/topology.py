"""Data-centre topologies.

Topologies are pure descriptions (a :class:`Graph` plus node-role metadata);
:class:`repro.network.network.Network` turns a description into simulated
switches, hosts, ports and links.

Two families are provided:

* :class:`FatTreeTopology` -- the k-ary fat-tree used in the paper's
  evaluation ("250 servers FatTree" corresponds to k=10); every pod has
  k/2 edge and k/2 aggregation switches, there are (k/2)^2 core switches and
  each edge switch serves k/2 hosts.  All host-to-host paths that cross pods
  have the same length, which is what makes per-packet spraying attractive.
* :class:`LeafSpineTopology` -- a two-tier Clos, convenient for small tests
  and for the Incast experiment where a single rack's uplinks are the
  bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional


class NodeRole(str, Enum):
    """Role of a topology node."""

    HOST = "host"
    EDGE = "edge"
    AGGREGATION = "aggregation"
    CORE = "core"
    LEAF = "leaf"
    SPINE = "spine"


class Graph:
    """An undirected simple graph over node names, kept in insertion order.

    ``adj[name]`` maps each neighbour to ``None`` (an insertion-ordered set),
    so every listing below is deterministic.  :attr:`edges` reports each link
    once, node-major, from its earlier-inserted endpoint: link wiring, the
    fault builders and the golden fingerprints all inherit that order.
    """

    def __init__(self) -> None:
        self.adj: dict[str, dict[str, None]] = {}

    def add_node(self, name: str) -> None:
        """Add a node (a no-op if it exists)."""
        self.adj.setdefault(name, {})

    def add_edge(self, a: str, b: str) -> None:
        """Add an undirected link, adding missing endpoints."""
        self.adj.setdefault(a, {})[b] = None
        self.adj.setdefault(b, {})[a] = None

    def __contains__(self, name: object) -> bool:
        return name in self.adj

    @property
    def nodes(self) -> list[str]:
        """Node names in insertion order."""
        return list(self.adj)

    @property
    def edges(self) -> list[tuple[str, str]]:
        """Every link once, as ``(earlier-inserted endpoint, other)``."""
        seen: set[str] = set()
        edges = []
        for node, neighbours in self.adj.items():
            edges.extend((node, other) for other in neighbours if other not in seen)
            seen.add(node)
        return edges

    @property
    def degree(self) -> dict[str, int]:
        """Node name -> number of links (a fresh dict per access)."""
        return {node: len(neighbours) for node, neighbours in self.adj.items()}

    def neighbors(self, name: str) -> Iterator[str]:
        """Neighbours of ``name`` in link-insertion order."""
        return iter(self.adj[name])

    def has_edge(self, a: str, b: str) -> bool:
        """Whether ``a`` and ``b`` are linked."""
        return b in self.adj.get(a, ())

    def number_of_nodes(self) -> int:
        """Number of nodes."""
        return len(self.adj)


def bfs_distances(adj: Mapping[str, Iterable[str]], source: str) -> dict[str, int]:
    """Hop count from ``source`` to every node reachable over ``adj``."""
    distances = {source: 0}
    frontier = [source]
    while frontier:
        reached = []
        for node in frontier:
            hop = distances[node] + 1
            for neighbour in adj[node]:
                if neighbour not in distances:
                    distances[neighbour] = hop
                    reached.append(neighbour)
        frontier = reached
    return distances


@dataclass
class Topology:
    """A named graph with per-node roles.

    Attributes:
        name: human-readable topology name.
        graph: undirected :class:`Graph`; nodes are string names.
        roles: mapping node name -> :class:`NodeRole`.
    """

    name: str
    graph: Graph = field(default_factory=Graph)
    roles: dict[str, NodeRole] = field(default_factory=dict)
    #: the healthy routing this graph implies, built on first use by
    #: :func:`repro.network.routing.healthy_routes` and shared read-only by
    #: every network built on this topology; add_node/add_link clear it
    _routes: Optional[object] = field(default=None, init=False, repr=False, compare=False)

    def add_node(self, name: str, role: NodeRole) -> str:
        """Add a node with a role; returns the name for chaining."""
        self.graph.add_node(name)
        self.roles[name] = role
        self._routes = None
        return name

    def add_link(self, a: str, b: str) -> None:
        """Add an undirected link between two existing nodes."""
        if a not in self.graph or b not in self.graph:
            raise KeyError(f"both endpoints must exist before linking {a!r}-{b!r}")
        self.graph.add_edge(a, b)
        self._routes = None

    @property
    def hosts(self) -> list[str]:
        """Names of all host nodes, in insertion order."""
        return [name for name in self.graph.nodes if self.roles[name] is NodeRole.HOST]

    @property
    def switches(self) -> list[str]:
        """Names of all switch nodes, in insertion order."""
        return [name for name in self.graph.nodes if self.roles[name] is not NodeRole.HOST]

    @property
    def num_hosts(self) -> int:
        """Number of hosts in the topology."""
        return len(self.hosts)

    def host_rack(self, host_name: str) -> str:
        """Return the edge/leaf switch the host is attached to."""
        if self.roles.get(host_name) is not NodeRole.HOST:
            raise KeyError(f"{host_name!r} is not a host")
        for neighbour in self.graph.neighbors(host_name):
            if self.roles[neighbour] is not NodeRole.HOST:
                return neighbour
        raise ValueError(f"host {host_name!r} has no switch neighbour")

    def hosts_in_same_rack(self, host_name: str) -> list[str]:
        """Return every host attached to the same edge switch (including itself)."""
        rack = self.host_rack(host_name)
        return [
            neighbour
            for neighbour in self.graph.neighbors(rack)
            if self.roles[neighbour] is NodeRole.HOST
        ]

    def validate(self) -> None:
        """Sanity-check the topology (connected, hosts have exactly one uplink)."""
        if self.graph.number_of_nodes() == 0:
            raise ValueError("topology is empty")
        adj = self.graph.adj
        if len(bfs_distances(adj, next(iter(adj)))) != len(adj):
            raise ValueError("topology is not connected")
        for host in self.hosts:
            if len(adj[host]) != 1:
                raise ValueError(f"host {host!r} must have exactly one uplink")


class FatTreeTopology(Topology):
    """A k-ary fat-tree: k pods, (k/2)^2 core switches, k^3/4 hosts."""

    def __init__(self, k: int) -> None:
        if k < 2 or k % 2 != 0:
            raise ValueError(f"fat-tree arity k must be an even integer >= 2, got {k}")
        super().__init__(name=f"fattree-k{k}")
        self.k = k
        half = k // 2

        core_switches = [
            self.add_node(f"core{i}", NodeRole.CORE) for i in range(half * half)
        ]
        for pod in range(k):
            aggregation = [
                self.add_node(f"agg{pod}_{i}", NodeRole.AGGREGATION) for i in range(half)
            ]
            edges = [
                self.add_node(f"edge{pod}_{i}", NodeRole.EDGE) for i in range(half)
            ]
            for agg_index, agg in enumerate(aggregation):
                for edge in edges:
                    self.add_link(agg, edge)
                for core_index in range(half):
                    core = core_switches[agg_index * half + core_index]
                    self.add_link(agg, core)
            for edge_index, edge in enumerate(edges):
                for host_index in range(half):
                    host = self.add_node(
                        f"h{pod * half * half + edge_index * half + host_index}",
                        NodeRole.HOST,
                    )
                    self.add_link(edge, host)
        self.validate()

    @classmethod
    def with_at_least_hosts(cls, min_hosts: int) -> "FatTreeTopology":
        """Return the smallest fat-tree whose host count is >= ``min_hosts``.

        The paper's "250 servers FatTree" maps to k=10 (250 hosts).
        """
        k = 2
        while (k ** 3) // 4 < min_hosts:
            k += 2
        return cls(k)


@lru_cache(maxsize=None)
def shared_fattree(k: int) -> FatTreeTopology:
    """This process's one ``FatTreeTopology(k)``, so its routing is computed once.

    A fat-tree is a pure function of ``k``; every run that shares it also
    shares its healthy routing tables.  Callers must not add to it.
    """
    return FatTreeTopology(k)


class LeafSpineTopology(Topology):
    """A two-tier leaf/spine Clos with a fixed number of hosts per leaf."""

    def __init__(self, num_leaves: int, num_spines: int, hosts_per_leaf: int) -> None:
        if num_leaves <= 0 or num_spines <= 0 or hosts_per_leaf <= 0:
            raise ValueError("leaf/spine/host counts must all be positive")
        super().__init__(name=f"leafspine-{num_leaves}x{num_spines}x{hosts_per_leaf}")
        self.num_leaves = num_leaves
        self.num_spines = num_spines
        self.hosts_per_leaf = hosts_per_leaf

        spines = [self.add_node(f"spine{i}", NodeRole.SPINE) for i in range(num_spines)]
        host_index = 0
        for leaf_index in range(num_leaves):
            leaf = self.add_node(f"leaf{leaf_index}", NodeRole.LEAF)
            for spine in spines:
                self.add_link(leaf, spine)
            for _ in range(hosts_per_leaf):
                host = self.add_node(f"h{host_index}", NodeRole.HOST)
                self.add_link(leaf, host)
                host_index += 1
        self.validate()


def single_rack(num_hosts: int) -> Topology:
    """A single switch with ``num_hosts`` hosts: the smallest useful topology."""
    if num_hosts < 2:
        raise ValueError("a rack needs at least two hosts")
    topology = Topology(name=f"rack-{num_hosts}")
    tor = topology.add_node("tor", NodeRole.EDGE)
    for index in range(num_hosts):
        host = topology.add_node(f"h{index}", NodeRole.HOST)
        topology.add_link(tor, host)
    topology.validate()
    return topology
