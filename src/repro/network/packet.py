"""The packet model shared by every protocol in the simulator.

A single :class:`Packet` class carries the fields the network layer needs
(addresses, size, priority, trim state); each transport attaches its own
protocol-specific payload object (e.g. a Polyraptor symbol descriptor or a
TCP segment descriptor).  Packets are identified by a monotonically
increasing id so traces are easy to follow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Optional

#: Size of every protocol header in bytes (Ethernet + IP + transport header).
DEFAULT_HEADER_BYTES = 64

_packet_ids = itertools.count()


class PacketKind(str, Enum):
    """Coarse classification used by queues and traces."""

    DATA = "data"
    CONTROL = "control"
    HEADER = "header"  # a trimmed data packet: header survived, payload dropped


@dataclass(slots=True)
class Packet:
    """One packet on the wire."""

    protocol: str
    src: int
    dst: Optional[int]
    size_bytes: int
    kind: PacketKind = PacketKind.DATA
    multicast_group: Optional[int] = None
    flow_id: int = 0
    header_bytes: int = DEFAULT_HEADER_BYTES
    priority: bool = False
    trimmed: bool = False
    payload: Any = None
    created_at: float = 0.0
    hops: int = 0
    ce: bool = False  # ECN Congestion Experienced mark, set by marking queues
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.size_bytes < self.header_bytes:
            raise ValueError(
                f"packet size {self.size_bytes} is smaller than its header "
                f"({self.header_bytes} bytes)"
            )
        if self.dst is None and self.multicast_group is None:
            raise ValueError("a packet needs a unicast destination or a multicast group")

    @property
    def is_multicast(self) -> bool:
        """True if this packet is addressed to a multicast group."""
        return self.multicast_group is not None

    @property
    def payload_bytes(self) -> int:
        """Bytes of payload carried (zero for control packets and trimmed headers)."""
        return max(0, self.size_bytes - self.header_bytes)

    def trim(self) -> "Packet":
        """Return the trimmed version of this packet (header only, priority).

        The original packet object is not modified; switches replace the
        queued packet with the trimmed copy.
        """
        if self.kind is not PacketKind.DATA:
            raise ValueError("only data packets can be trimmed")
        return replace(
            self,
            size_bytes=self.header_bytes,
            kind=PacketKind.HEADER,
            priority=True,
            trimmed=True,
            packet_id=next(_packet_ids),
        )

    def copy_for_replication(self) -> "Packet":
        """Return an independent copy used when a switch replicates a multicast packet."""
        return replace(self, packet_id=next(_packet_ids))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = f"group {self.multicast_group}" if self.is_multicast else f"host {self.dst}"
        flags = []
        if self.priority:
            flags.append("prio")
        if self.trimmed:
            flags.append("trimmed")
        rendered_flags = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"Packet#{self.packet_id}({self.protocol} {self.kind.value} "
            f"{self.src}->{target} {self.size_bytes}B{rendered_flags})"
        )


def make_control_packet(
    protocol: str,
    src: int,
    dst: int,
    payload: Any,
    flow_id: int = 0,
    size_bytes: int = DEFAULT_HEADER_BYTES,
    created_at: float = 0.0,
) -> Packet:
    """Build a small, priority control packet (pull requests, ACKs, ...)."""
    return Packet(
        protocol=protocol,
        src=src,
        dst=dst,
        size_bytes=size_bytes,
        kind=PacketKind.CONTROL,
        flow_id=flow_id,
        priority=True,
        payload=payload,
        created_at=created_at,
    )
