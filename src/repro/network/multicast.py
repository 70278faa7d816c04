"""Native multicast support: groups and shared distribution trees.

The paper exploits "native support for multicasting in data centres": a
sender transmits one copy of each symbol and the fabric replicates it along a
multicast tree that reaches every receiver (the multicasting model follows
DCCast-style point-to-multipoint trees).

Tree construction here takes the union of one shortest path from the source
to every receiver; the per-group tie-break spreads different groups' trees
across the available core/aggregation switches so concurrent groups do not
all collide on the same links.  Each switch on the tree gets a group-table
entry listing its egress ports for the group; the source's rack switch
forwards a single copy up only when the tree actually needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.routing import RoutingTable, stable_hash
from repro.network.topology import Topology


@dataclass(frozen=True)
class MulticastGroup:
    """An installed multicast group."""

    group_id: int
    source_host: str
    receiver_hosts: tuple[str, ...]
    #: directed tree edges as (node, child) pairs, rooted at the source host
    tree_edges: tuple[tuple[str, str], ...]

    @property
    def num_receivers(self) -> int:
        """Number of receivers in the group."""
        return len(self.receiver_hosts)


def build_multicast_tree(
    topology: Topology,
    routing: RoutingTable,
    group_id: int,
    source_host: str,
    receiver_hosts: list[str],
) -> MulticastGroup:
    """Build a shared tree as the union of source->receiver shortest paths.

    Returns a :class:`MulticastGroup` whose ``tree_edges`` are directed away
    from the source.  Duplicate receivers and receivers equal to the source
    are rejected, mirroring what a storage system's replica placement would
    guarantee.
    """
    if not receiver_hosts:
        raise ValueError("a multicast group needs at least one receiver")
    if len(set(receiver_hosts)) != len(receiver_hosts):
        raise ValueError("receiver hosts must be distinct")
    if source_host in receiver_hosts:
        raise ValueError("the source cannot also be a receiver")

    tie_break = stable_hash(group_id) & 0xFFFF
    edges: set[tuple[str, str]] = set()
    for receiver in receiver_hosts:
        path = routing.path(source_host, receiver, tie_break=tie_break)
        for parent, child in zip(path, path[1:]):
            edges.add((parent, child))
    return MulticastGroup(
        group_id=group_id,
        source_host=source_host,
        receiver_hosts=tuple(receiver_hosts),
        tree_edges=tuple(sorted(edges)),
    )


def group_table_entries(group: MulticastGroup) -> dict[str, tuple[str, ...]]:
    """Convert a tree into per-node egress sets (node name -> child names)."""
    children: dict[str, list[str]] = {}
    for parent, child in group.tree_edges:
        children.setdefault(parent, []).append(child)
    return {node: tuple(sorted(kids)) for node, kids in children.items()}
