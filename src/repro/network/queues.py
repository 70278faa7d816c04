"""Queue disciplines used by switch and host egress ports.

Two disciplines are provided:

* :class:`DropTailQueue` -- a single FIFO bounded in packets; overflowing
  packets are dropped.  Used by the TCP baseline.
* :class:`TrimmingQueue` -- the NDP-style discipline the paper adopts: a
  small bounded *data* queue plus a *priority header* queue.  When the data
  queue is full an arriving data packet is **trimmed** (its payload is
  discarded, its header survives) and the header is placed in the priority
  queue.  Control packets and already-trimmed headers always use the priority
  queue.  The scheduler serves the priority queue first but guarantees the
  data queue a configurable share to avoid starvation under pathological
  header load (mirroring NDP's 10:1 weighting).

Both disciplines expose the same interface (``enqueue`` / ``dequeue`` /
``__len__``) plus drop/trim counters, so ports are agnostic to which one they
carry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Optional, Protocol

from repro.network.packet import Packet, PacketKind

#: bound on a trimming queue's priority (header) queue.  Headers are tiny, so
#: it can be generous, but it is still bounded so a pathological run cannot
#: accumulate unbounded state.
HEADER_QUEUE_CAPACITY_PACKETS = 1000
#: weight of the newest depth sample in the ECN marking EWMA.
ECN_EWMA_WEIGHT = 0.2


class EcnMarker:
    """Per-queue ECN/PCN marking state of a drop-tail queue.

    A marker watches the queue depth on every data enqueue and sets the CE
    bit when either

    * the instantaneous depth reaches ``threshold_packets`` (DCTCP-style
      step marking), or
    * an EWMA of the depth, weighting the newest sample by
      :data:`ECN_EWMA_WEIGHT`, reaches it too (PCN-style smoothed marking;
      the EWMA decays slowly, so marking persists briefly after a burst
      drains -- deliberate hysteresis).

    Args:
        threshold_packets: marking threshold (in packets, measured *before*
            the arriving packet is appended).
    """

    def __init__(self, threshold_packets: int) -> None:
        if threshold_packets <= 0:
            raise ValueError("ECN threshold must be positive")
        self.threshold_packets = threshold_packets
        self.ewma_depth = 0.0
        self.marks = 0

    def observe(self, depth_packets: int) -> bool:
        """Fold a depth sample into the EWMA; return True if marking is on."""
        self.ewma_depth = (
            (1.0 - ECN_EWMA_WEIGHT) * self.ewma_depth + ECN_EWMA_WEIGHT * depth_packets
        )
        return (
            depth_packets >= self.threshold_packets
            or self.ewma_depth >= self.threshold_packets
        )

    def maybe_mark(self, packet: Packet, depth_packets: int) -> Packet:
        """Return ``packet`` (CE-marked copy if over threshold) for a data enqueue."""
        if self.observe(depth_packets) and not packet.ce:
            self.marks += 1
            return replace(packet, ce=True)
        return packet


class QueueDiscipline(Protocol):
    """Interface every egress queue discipline implements."""

    def enqueue(self, packet: Packet) -> Optional[Packet]:
        """Accept a packet; return the packet actually queued (possibly trimmed) or ``None`` if dropped."""

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the next packet to transmit, or ``None`` if empty."""

    def __len__(self) -> int:
        """Number of queued packets."""


class DropTailQueue:
    """A single bounded FIFO; the classic switch queue used by the TCP baseline.

    It is the only discipline that marks: with a ``marker`` every data
    enqueue may set the CE bit TCP's receiver echoes.  A trimming queue's
    congestion signal is the trimmed header itself.
    """

    def __init__(
        self,
        capacity_packets: int = 100,
        marker: Optional[EcnMarker] = None,
    ) -> None:
        if capacity_packets <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_packets = capacity_packets
        self.marker = marker
        self._queue: deque[Packet] = deque()
        self.dropped_packets = 0

    def enqueue(self, packet: Packet) -> Optional[Packet]:
        """Queue the packet, or drop it (returning ``None``) if the FIFO is full."""
        if len(self._queue) >= self.capacity_packets:
            self.dropped_packets += 1
            return None
        if self.marker is not None and packet.kind is PacketKind.DATA:
            packet = self.marker.maybe_mark(packet, len(self._queue))
        self._queue.append(packet)
        return packet

    def dequeue(self) -> Optional[Packet]:
        """Return the oldest queued packet, or ``None``."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def queued_bytes(self) -> int:
        """Total bytes currently queued."""
        return sum(packet.size_bytes for packet in self._queue)

    @property
    def ecn_marked(self) -> int:
        """Packets CE-marked by this queue's marker (0 without a marker)."""
        return self.marker.marks if self.marker is not None else 0


class TrimmingQueue:
    """NDP-style two-queue discipline with packet trimming.

    Args:
        data_capacity_packets: bound on the data queue (NDP uses 8 MTU-sized
            slots; shallow buffers are a design goal of the paper).
        header_capacity_packets: bound on the priority queue; headers are tiny
            so this can be generous, but it is still bounded so a pathological
            run cannot accumulate unbounded state.
        data_service_ratio: after this many consecutive priority-queue packets
            the scheduler serves one data packet even if more headers are
            waiting (prevents starvation; 10 mirrors NDP).
    """

    def __init__(
        self,
        data_capacity_packets: int = 8,
        header_capacity_packets: int = HEADER_QUEUE_CAPACITY_PACKETS,
        data_service_ratio: int = 10,
    ) -> None:
        if data_capacity_packets <= 0:
            raise ValueError("data queue capacity must be positive")
        if header_capacity_packets <= 0:
            raise ValueError("header queue capacity must be positive")
        if data_service_ratio <= 0:
            raise ValueError("data_service_ratio must be positive")
        self.data_capacity_packets = data_capacity_packets
        self.header_capacity_packets = header_capacity_packets
        self.data_service_ratio = data_service_ratio
        self._data: deque[Packet] = deque()
        self._priority: deque[Packet] = deque()
        self._consecutive_priority = 0
        self.trimmed_packets = 0
        self.dropped_headers = 0
        self.dropped_packets = 0

    def enqueue(self, packet: Packet) -> Optional[Packet]:
        """Queue a packet, trimming data packets when the data queue is full."""
        if packet.kind is PacketKind.DATA and not packet.priority:
            if len(self._data) < self.data_capacity_packets:
                self._data.append(packet)
                return packet
            trimmed = packet.trim()
            self.trimmed_packets += 1
            return self._enqueue_priority(trimmed)
        return self._enqueue_priority(packet)

    def _enqueue_priority(self, packet: Packet) -> Optional[Packet]:
        if len(self._priority) >= self.header_capacity_packets:
            self.dropped_headers += 1
            self.dropped_packets += 1
            return None
        self._priority.append(packet)
        return packet

    def dequeue(self) -> Optional[Packet]:
        """Serve the priority queue first, with a starvation guard for data."""
        serve_data_first = (
            self._consecutive_priority >= self.data_service_ratio and self._data
        )
        if not serve_data_first and self._priority:
            self._consecutive_priority += 1
            return self._priority.popleft()
        if self._data:
            self._consecutive_priority = 0
            return self._data.popleft()
        if self._priority:
            self._consecutive_priority += 1
            return self._priority.popleft()
        return None

    def __len__(self) -> int:
        return len(self._data) + len(self._priority)

    @property
    def data_queue_length(self) -> int:
        """Packets currently waiting in the data queue."""
        return len(self._data)

    @property
    def priority_queue_length(self) -> int:
        """Packets currently waiting in the priority (header/control) queue."""
        return len(self._priority)

    @property
    def queued_bytes(self) -> int:
        """Total bytes currently queued across both queues."""
        return sum(p.size_bytes for p in self._data) + sum(p.size_bytes for p in self._priority)
