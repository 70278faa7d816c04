"""TCP emulations of the paper's one-to-many and many-to-one patterns.

Figure 1a: with TCP, replicating an object to N servers means opening N
independent connections and sending the **full object over each** (the client
has no multicast support).  The replicated push is complete when the slowest
copy completes.

Figure 1b: with TCP, fetching an object that is stored on N replicas without
coordination means each replica returns a 1/N share of the object.  The fetch
is complete when the last share arrives.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.transport.tcp.agent import TcpAgent


def _when_all(
    num_parts: int, on_complete: Optional[Callable[[float], None]]
) -> Callable[[float], None]:
    """Return a per-part completion callback that fires ``on_complete`` once
    all ``num_parts`` parts have finished."""
    remaining = num_parts

    def _part_done(now: float) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining == 0 and on_complete is not None:
            on_complete(now)

    return _part_done


def start_replicated_push(
    client_agent: TcpAgent,
    replica_host_ids: list[int],
    object_bytes: int,
    transfer_id: int,
    flow_id_base: Optional[int] = None,
    on_complete: Optional[Callable[[float], None]] = None,
) -> list[int]:
    """Multi-unicast ``object_bytes`` from the client to every replica.

    Returns the flow ids of the component connections.  ``on_complete``
    fires once, when the slowest copy completes; the composite transfer
    moved the *object* bytes (not N x object bytes): the application stored
    one object, however much the network had to carry.
    """
    if not replica_host_ids:
        raise ValueError("at least one replica is required")
    base = flow_id_base if flow_id_base is not None else transfer_id * 1000
    part_done = _when_all(len(replica_host_ids), on_complete)
    flow_ids = []
    for index, replica in enumerate(replica_host_ids):
        flow_id = base + index
        client_agent.start_flow(flow_id, replica, object_bytes, on_complete=part_done)
        flow_ids.append(flow_id)
    return flow_ids


def start_multi_source_fetch(
    replica_agents: list[TcpAgent],
    client_host_id: int,
    object_bytes: int,
    transfer_id: int,
    flow_id_base: Optional[int] = None,
    on_complete: Optional[Callable[[float], None]] = None,
) -> list[int]:
    """Fetch an object from N replicas, each sending an uncoordinated 1/N share.

    ``on_complete`` fires once, when the last share arrives.
    """
    if not replica_agents:
        raise ValueError("at least one replica is required")
    base = flow_id_base if flow_id_base is not None else transfer_id * 1000
    num = len(replica_agents)
    share = object_bytes // num
    shares = [share] * num
    shares[-1] += object_bytes - share * num  # remainder goes to the last replica
    part_done = _when_all(num, on_complete)
    flow_ids = []
    for index, (agent, part_bytes) in enumerate(zip(replica_agents, shares)):
        flow_id = base + index
        agent.start_flow(flow_id, client_host_id, max(1, part_bytes), on_complete=part_done)
        flow_ids.append(flow_id)
    return flow_ids
